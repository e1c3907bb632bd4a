(** The benchmark corpus.

    Mini-C kernels modelled on the three suites the paper evaluates
    (MiBench, PARSEC 3.0, SPEC CPU2017).  Each kernel reproduces the
    dependence/parallelism {e pattern class} its namesake contributes to
    the paper's figures:

    - regular data-parallel loops (DOALL candidates): bitcount, susan,
      basicmath, blackscholes, streamcluster, lbm, namd, x264-sad;
    - self-contained recurrences + heavy parallel work (HELIX candidates):
      swaptions (Monte-Carlo LCG), canneal;
    - memory-fed recurrences + downstream work (DSWP candidates): ferret,
      dedup, adpcm-pipeline;
    - genuinely sequential kernels (nothing should win): crc32, sha,
      xz-rle, mcf (pointer chasing);
    - irregular/control-heavy (SPEC-like, small wins at best): dijkstra,
      stringsearch, qsort;
    - tool-specific drivers: montecarlo (PRVJeeves), histogram
      (Perspective: apparent-but-never-actual conflicts), calls+tables
      (DeadFunctionElimination).

    All data is generated deterministically inside each program; float
    reductions accumulate integer-valued floats so parallel reassociation
    is exact and outputs stay bit-identical. *)

type suite = MiBench | Parsec | Spec

let suite_name = function MiBench -> "MiBench" | Parsec -> "PARSEC" | Spec -> "SPEC"

type kernel = {
  kname : string;
  suite : suite;
  src : string;
  fuel : int;       (** interpreter instruction budget *)
}

(* ------------------------------------------------------------------ *)
(* MiBench-like                                                        *)
(* ------------------------------------------------------------------ *)

let bitcount =
  {
    kname = "bitcount";
    suite = MiBench;
    fuel = 30_000_000;
    src =
      {|
int main() {
  int n = 30000;
  int total = 0;
  for (int i = 0; i < n; i++) {
    int x = i * 2654435761;
    int c = 0;
    for (int b = 0; b < 16; b++) {
      c += (x >> b) & 1;
    }
    total += c;
  }
  print(total);
  return 0;
}
|};
  }

let crc32 =
  {
    kname = "crc32";
    suite = MiBench;
    fuel = 30_000_000;
    src =
      {|
int data[20000];
int crc_byte(int crc, int byte) {
  crc = crc ^ byte;
  int k = 0;
  do {
    int low = crc & 1;
    crc = (crc >> 1) & 9223372036854775807;
    if (low) { crc = crc ^ 79764919; }
    k++;
  } while (k < 8);
  return crc;
}
int main() {
  int n = 20000;
  for (int i = 0; i < n; i++) data[i] = (i * 31 + 7) & 255;
  int crc = -1;
  for (int i = 0; i < n; i++) {
    crc = crc_byte(crc, data[i]);
  }
  print(crc);
  return 0;
}
|};
  }

let sha_lite =
  {
    kname = "sha";
    suite = MiBench;
    fuel = 30_000_000;
    src =
      {|
int msg[16384];
int main() {
  int n = 16384;
  for (int i = 0; i < n; i++) msg[i] = (i * 131 + 89) & 65535;
  int h0 = 1732584193;
  int h1 = 4023233417;
  for (int i = 0; i < n; i++) {
    int w = msg[i];
    int t = ((h0 << 5) | ((h0 >> 27) & 31)) + h1 + w + 1518500249;
    h1 = h0;
    h0 = t & 4294967295;
  }
  print(h0 + h1);
  return 0;
}
|};
  }

let dijkstra_lite =
  {
    kname = "dijkstra";
    suite = MiBench;
    fuel = 60_000_000;
    src =
      {|
int adj[40000];
int dist[200];
int done[200];
int find_min(int *d, int *fin, int n) {
  int best = -1;
  int bestd = 1000000000;
  for (int i = 0; i < n; i++) {
    if (!fin[i] && d[i] < bestd) { bestd = d[i]; best = i; }
  }
  return best;
}
void relax(int *graph, int *d, int u, int n) {
  int du = d[u];
  for (int j = 0; j < n; j++) {
    int nd = du + graph[u*200+j];
    if (nd < d[j]) { d[j] = nd; }
  }
}
int main() {
  int n = 200;
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      adj[i*200+j] = ((i * 7 + j * 13) % 97) + 1;
    }
  }
  for (int i = 0; i < n; i++) { dist[i] = 1000000000; done[i] = 0; }
  dist[0] = 0;
  for (int it = 0; it < n; it++) {
    int best = find_min(dist, done, n);
    if (best >= 0) {
      done[best] = 1;
      relax(adj, dist, best, n);
    }
  }
  int sum = 0;
  for (int i = 0; i < n; i++) sum += dist[i];
  print(sum);
  return 0;
}
|};
  }

let stringsearch =
  {
    kname = "stringsearch";
    suite = MiBench;
    fuel = 60_000_000;
    src =
      {|
int text[60000];
int pat[8];
int match_at(int *t, int *p, int i, int plen) {
  for (int j = 0; j < plen; j++) {
    if (t[i+j] != p[j]) { return 0; }
  }
  return 1;
}
int main() {
  int n = 60000;
  int plen = 8;
  for (int i = 0; i < n; i++) text[i] = (i * 1103515245 + 12345) & 31;
  for (int j = 0; j < plen; j++) pat[j] = (j * 5 + 3) & 31;
  int found = 0;
  for (int i = 0; i < n - 8; i++) {
    found += match_at(text, pat, i, plen);
  }
  print(found);
  return 0;
}
|};
  }

let susan_lite =
  {
    kname = "susan";
    suite = MiBench;
    fuel = 80_000_000;
    src =
      {|
int img[40000];
int out[40000];
int main() {
  int w = 200;
  int h = 200;
  for (int i = 0; i < w*h; i++) img[i] = (i * 2654435761) & 255;
  for (int y = 1; y < h - 1; y++) {
    for (int x = 1; x < w - 1; x++) {
      int c = img[y*200+x];
      int s = 0;
      s += img[(y-1)*200+x-1]; s += img[(y-1)*200+x]; s += img[(y-1)*200+x+1];
      s += img[y*200+x-1];     s += 4 * c;            s += img[y*200+x+1];
      s += img[(y+1)*200+x-1]; s += img[(y+1)*200+x]; s += img[(y+1)*200+x+1];
      out[y*200+x] = s / 12;
    }
  }
  int sum = 0;
  for (int i = 0; i < w*h; i++) sum += out[i];
  print(sum);
  return 0;
}
|};
  }

let basicmath =
  {
    kname = "basicmath";
    suite = MiBench;
    fuel = 60_000_000;
    src =
      {|
float roots[1];
int main() {
  int n = 20000;
  float acc = 0.0;
  for (int i = 0; i < n; i++) {
    float a = 1.0 + (float)(i % 97);
    float x = a;
    x = 0.5 * (x + a / x);
    x = 0.5 * (x + a / x);
    x = 0.5 * (x + a / x);
    x = 0.5 * (x + a / x);
    acc += floor(x * 16.0);
  }
  roots[0] = acc;
  print((int)acc);
  return 0;
}
|};
  }

let qsort_lite =
  {
    kname = "qsort";
    suite = MiBench;
    fuel = 60_000_000;
    src =
      {|
int arr[6000];
int stack[256];
void swap(int *a, int i, int j) {
  int t = a[i];
  a[i] = a[j];
  a[j] = t;
}
int partition(int *a, int lo, int hi) {
  int p = a[hi];
  int i = lo - 1;
  for (int j = lo; j < hi; j++) {
    if (a[j] < p) { i++; swap(a, i, j); }
  }
  swap(a, i + 1, hi);
  return i + 1;
}
int main() {
  int n = 6000;
  for (int i = 0; i < n; i++) arr[i] = (i * 1103515245 + 12345) & 65535;
  int top = 0;
  stack[0] = 0;
  stack[1] = n - 1;
  top = 2;
  while (top > 0) {
    int hi = stack[top-1];
    int lo = stack[top-2];
    top -= 2;
    if (lo < hi) {
      int p = partition(arr, lo, hi);
      if (top < 250) {
        stack[top] = lo; stack[top+1] = p - 1; top += 2;
        stack[top] = p + 1; stack[top+1] = hi; top += 2;
      }
    }
  }
  int check = 0;
  for (int i = 0; i < n; i++) check += arr[i] * (i & 7);
  print(check);
  return 0;
}
|};
  }

let adpcm_lite =
  {
    kname = "adpcm";
    suite = MiBench;
    fuel = 30_000_000;
    src =
      {|
int pcm[30000];
int enc[30000];
int main() {
  int n = 30000;
  for (int i = 0; i < n; i++) pcm[i] = ((i * 37) % 255) - 128;
  int pred = 0;
  int step = 4;
  for (int i = 0; i < n; i++) {
    int diff = pcm[i] - pred;
    int code = 0;
    if (diff < 0) { code = 8; diff = -diff; }
    if (diff >= step) { code = code | 4; diff -= step; }
    if (diff >= step / 2) { code = code | 2; }
    enc[i] = code;
    pred = pred + ((code & 7) * step) / 4;
    if (pred > 127) pred = 127;
    if (pred < -128) pred = -128;
    if ((code & 7) >= 4) { step = step * 2; } else { step = step - step / 4; }
    if (step < 4) step = 4;
    if (step > 1024) step = 1024;
  }
  int sum = 0;
  for (int i = 0; i < n; i++) sum += enc[i];
  print(sum);
  return 0;
}
|};
  }

(* ------------------------------------------------------------------ *)
(* PARSEC-like                                                         *)
(* ------------------------------------------------------------------ *)

let blackscholes_lite =
  {
    kname = "blackscholes";
    suite = Parsec;
    fuel = 80_000_000;
    src =
      {|
float prices[1];
int main() {
  int n = 20000;
  float acc = 0.0;
  for (int i = 0; i < n; i++) {
    float s = 90.0 + (float)(i % 21);
    float k = 100.0;
    float t = 0.5 + (float)(i % 5) * 0.25;
    float r = 0.02;
    float v = 0.3;
    float srt = v * sqrt(t);
    float d1 = (log(s / k) + (r + 0.5 * v * v) * t) / srt;
    float d2 = d1 - srt;
    float nd1 = 1.0 / (1.0 + exp(0.0 - 1.702 * d1));
    float nd2 = 1.0 / (1.0 + exp(0.0 - 1.702 * d2));
    float c = s * nd1 - k * exp(0.0 - r * t) * nd2;
    acc += floor(c * 100.0);
  }
  prices[0] = acc;
  print((int)acc);
  return 0;
}
|};
  }

let swaptions_lite =
  {
    kname = "swaptions";
    suite = Parsec;
    fuel = 80_000_000;
    src =
      {|
float result[1];
int main() {
  int n = 20000;
  int seed = 20061204;
  float acc = 0.0;
  for (int i = 0; i < n; i++) {
    seed = seed * 1103515245 + 12345;
    int u = (seed >> 16) & 32767;
    float z = ((float)u / 32768.0) * 2.0 - 1.0;
    float rate = 0.04 + 0.02 * z;
    float df = 1.0;
    for (int t = 0; t < 12; t++) {
      df = df / (1.0 + rate * 0.25);
      rate = rate + z * 0.001;
    }
    float payoff = df * 100.0 - 88.0;
    if (payoff < 0.0) payoff = 0.0;
    acc += floor(payoff * 64.0);
  }
  result[0] = acc;
  print((int)acc);
  return 0;
}
|};
  }

let streamcluster_lite =
  {
    kname = "streamcluster";
    suite = Parsec;
    fuel = 90_000_000;
    src =
      {|
float pts[20000];
float ctr[40];
int main() {
  int n = 2000;
  int dim = 10;
  int k = 4;
  for (int i = 0; i < n*dim; i++) pts[i] = (float)((i * 263 + 71) % 100);
  for (int j = 0; j < k*dim; j++) ctr[j] = (float)((j * 17 + 3) % 100);
  float cost = 0.0;
  for (int i = 0; i < n; i++) {
    float best = 1000000000.0;
    for (int c = 0; c < k; c++) {
      float d = 0.0;
      for (int j = 0; j < dim; j++) {
        float diff = pts[i*10+j] - ctr[c*10+j];
        d += diff * diff;
      }
      if (d < best) best = d;
    }
    cost += floor(best);
  }
  print((int)cost);
  return 0;
}
|};
  }

let fluidanimate_lite =
  {
    kname = "fluidanimate";
    suite = Parsec;
    fuel = 90_000_000;
    src =
      {|
float grid[40000];
float next[40000];
int main() {
  int w = 200;
  int h = 200;
  for (int i = 0; i < w*h; i++) grid[i] = (float)((i * 97 + 13) % 50);
  for (int step = 0; step < 2; step++) {
    for (int y = 1; y < h - 1; y++) {
      for (int x = 1; x < w - 1; x++) {
        float v = grid[y*200+x] * 4.0;
        v += grid[(y-1)*200+x] + grid[(y+1)*200+x];
        v += grid[y*200+x-1] + grid[y*200+x+1];
        next[y*200+x] = floor(v / 8.0);
      }
    }
    for (int y = 1; y < h - 1; y++) {
      for (int x = 1; x < w - 1; x++) {
        grid[y*200+x] = next[y*200+x];
      }
    }
  }
  float sum = 0.0;
  for (int i = 0; i < w*h; i++) sum += grid[i];
  print((int)sum);
  return 0;
}
|};
  }

let ferret_lite =
  {
    kname = "ferret";
    suite = Parsec;
    fuel = 60_000_000;
    src =
      {|
int db[30000];
float scores[30000];
int main() {
  int n = 30000;
  for (int i = 0; i < n; i++) db[i] = (i * 2246822519) & 1048575;
  int h = 5381;
  for (int i = 0; i < n; i++) {
    h = (h * 33 + db[i]) & 1048575;
    float q = (float)h;
    float s = q * 0.001;
    s = s * s + q * 0.0001;
    s = s + s * s * 0.000001;
    s = s * 0.5 + sqrt(s + 1.0);
    s = s + log(s + 2.0) * 0.125;
    s = s * 0.75 + sqrt(s * s + q * 0.5);
    s = s + exp(0.0 - s * 0.001);
    scores[i] = floor(s);
  }
  float total = 0.0;
  for (int i = 0; i < n; i++) total += scores[i];
  print(h);
  print((int)total);
  return 0;
}
|};
  }

let dedup_lite =
  {
    kname = "dedup";
    suite = Parsec;
    fuel = 60_000_000;
    src =
      {|
int stream[40000];
int hashes[40000];
int roll_step(int *s, int i, int roll) {
  return (roll * 256 + s[i]) % 1000003;
}
int main() {
  int n = 40000;
  for (int i = 0; i < n; i++) stream[i] = (i * 1597334677) & 65535;
  int roll = 1;
  for (int i = 0; i < n; i++) {
    roll = roll_step(stream, i, roll);
    int x = roll;
    x = x ^ (x >> 7);
    x = (x * 2654435761) & 2147483647;
    x = x ^ (x >> 13);
    x = (x * 40503) & 2147483647;
    hashes[i] = x & 4095;
  }
  int dups = 0;
  for (int i = 1; i < n; i++) {
    if (hashes[i] == hashes[i-1]) dups++;
  }
  print(roll);
  print(dups);
  return 0;
}
|};
  }

let canneal_lite =
  {
    kname = "canneal";
    suite = Parsec;
    fuel = 60_000_000;
    src =
      {|
int cost_tab[4096];
int swap_delta(int *tab, int idx) {
  return tab[idx] - 105;
}
int main() {
  int n = 30000;
  for (int i = 0; i < 4096; i++) cost_tab[i] = (i * 37) % 211;
  int seed = 17;
  int accepted = 0;
  int cost = 100000;
  for (int i = 0; i < n; i++) {
    seed = seed * 1103515245 + 12345;
    int a = (seed >> 12) & 4095;
    int delta = swap_delta(cost_tab, a);
    if (delta < 0) { cost += delta; accepted++; }
  }
  print(cost);
  print(accepted);
  return 0;
}
|};
  }

(* ------------------------------------------------------------------ *)
(* SPEC-like                                                           *)
(* ------------------------------------------------------------------ *)

let lbm_lite =
  {
    kname = "lbm";
    suite = Spec;
    fuel = 90_000_000;
    src =
      {|
float cells[30000];
float tmp[30000];
int main() {
  int n = 10000;
  for (int i = 0; i < n*3; i++) cells[i] = (float)((i * 53 + 11) % 40);
  for (int t = 0; t < 3; t++) {
    for (int i = 1; i < n - 1; i++) {
      float f0 = cells[i*3];
      float f1 = cells[i*3+1];
      float f2 = cells[i*3+2];
      float rho = f0 + f1 + f2;
      float u = (f1 - f2) / (rho + 1.0);
      tmp[i*3] = floor(f0 + 0.1 * (rho / 3.0 - f0));
      tmp[i*3+1] = floor(f1 + 0.1 * (rho * (1.0 + u) / 3.0 - f1));
      tmp[i*3+2] = floor(f2 + 0.1 * (rho * (1.0 - u) / 3.0 - f2));
    }
    for (int i = 1; i < n - 1; i++) {
      cells[i*3] = tmp[i*3];
      cells[i*3+1] = tmp[i*3+1];
      cells[i*3+2] = tmp[i*3+2];
    }
  }
  float sum = 0.0;
  for (int i = 0; i < n*3; i++) sum += cells[i];
  print((int)sum);
  return 0;
}
|};
  }

let mcf_lite =
  {
    kname = "mcf";
    suite = Spec;
    fuel = 60_000_000;
    src =
      {|
int nxt[30000];
int val[30000];
int main() {
  int n = 30000;
  for (int i = 0; i < n; i++) {
    nxt[i] = (i * 7919 + 13) % n;
    val[i] = (i * 31) & 1023;
  }
  int p = 0;
  int sum = 0;
  for (int i = 0; i < n; i++) {
    sum += val[p];
    p = nxt[p];
  }
  print(sum);
  return 0;
}
|};
  }

let namd_lite =
  {
    kname = "namd";
    suite = Spec;
    fuel = 90_000_000;
    src =
      {|
float px[400];
float py[400];
float fx[400];
float fy[400];
int main() {
  int n = 400;
  for (int i = 0; i < n; i++) {
    px[i] = (float)((i * 37) % 100);
    py[i] = (float)((i * 53) % 100);
    fx[i] = 0.0;
    fy[i] = 0.0;
  }
  float energy = 0.0;
  for (int i = 0; i < n; i++) {
    float e = 0.0;
    for (int j = 0; j < n; j++) {
      if (j != i) {
        float dx = px[i] - px[j];
        float dy = py[i] - py[j];
        float r2 = dx * dx + dy * dy + 1.0;
        e += 1000.0 / r2;
      }
    }
    energy += floor(e);
  }
  print((int)energy);
  return 0;
}
|};
  }

let xz_lite =
  {
    kname = "xz";
    suite = Spec;
    fuel = 60_000_000;
    src =
      {|
int input[40000];
int output[80000];
int run_length(int *in, int i, int n) {
  int run = 1;
  while (i + run < n && in[i+run] == in[i] && run < 255) { run++; }
  return run;
}
int main() {
  int n = 40000;
  for (int i = 0; i < n; i++) input[i] = ((i / 97) * 31) & 255;
  int o = 0;
  int i = 0;
  while (i < n) {
    int run = run_length(input, i, n);
    output[o] = run;
    output[o+1] = input[i];
    o += 2;
    i += run;
  }
  int sum = 0;
  for (int k = 0; k < o; k++) sum += output[k] * (k & 15);
  print(o);
  print(sum);
  return 0;
}
|};
  }

let x264_lite =
  {
    kname = "x264";
    suite = Spec;
    fuel = 90_000_000;
    src =
      {|
int frame0[40000];
int frame1[40000];
int main() {
  int w = 200;
  int h = 200;
  for (int i = 0; i < w*h; i++) {
    frame0[i] = (i * 2654435761) & 255;
    frame1[i] = ((i + 3) * 2654435761) & 255;
  }
  int sad_total = 0;
  for (int by = 0; by < 12; by++) {
    for (int bx = 0; bx < 12; bx++) {
      int best = 1000000000;
      for (int dy = 0; dy < 3; dy++) {
        for (int dx = 0; dx < 3; dx++) {
          int sad = 0;
          for (int y = 0; y < 8; y++) {
            for (int x = 0; x < 8; x++) {
              int a = frame0[(by*16+y)*200 + bx*16+x];
              int b = frame1[(by*16+y+dy)*200 + bx*16+x+dx];
              int d = a - b;
              if (d < 0) d = -d;
              sad += d;
            }
          }
          if (sad < best) best = sad;
        }
      }
      sad_total += best;
    }
  }
  print(sad_total);
  return 0;
}
|};
  }

let jpeg_dct =
  {
    kname = "jpeg-dct";
    suite = MiBench;
    fuel = 90_000_000;
    src =
      {|
float blocks[25600];
float coef[64];
int main() {
  int nblocks = 400;
  for (int i = 0; i < nblocks*64; i++) blocks[i] = (float)((i * 13 + 5) % 256);
  for (int i = 0; i < 64; i++) coef[i] = 0.5 + (float)(i % 8) * 0.125;
  float energy = 0.0;
  for (int b = 0; b < nblocks; b++) {
    float e = 0.0;
    for (int u = 0; u < 8; u++) {
      for (int x = 0; x < 8; x++) {
        float s = 0.0;
        for (int k = 0; k < 8; k++) {
          s += blocks[b*64 + x*8 + k] * coef[u*8 + k];
        }
        e += floor(s * coef[x*8 + u]);
      }
    }
    energy += e;
  }
  print((int)energy);
  return 0;
}
|};
  }

let patricia_lite =
  {
    kname = "patricia";
    suite = MiBench;
    fuel = 60_000_000;
    src =
      {|
int main() {
  // binary trie over 12-bit keys; nodes are malloc'd triples
  // [bit, left, right]
  int *root = malloc(3);
  root[0] = 0; root[1] = 0; root[2] = 0;
  int inserted = 0;
  for (int t = 0; t < 3000; t++) {
    int key = (t * 2654435761) & 4095;
    int *node = root;
    int depth = 0;
    while (depth < 12) {
      int bit = (key >> depth) & 1;
      int *slot = (int*)node[1 + bit];
      if ((int)slot == 0) {
        int *leaf = malloc(3);
        leaf[0] = depth + 1; leaf[1] = 0; leaf[2] = 0;
        node[1 + bit] = (int)leaf;
        inserted++;
        depth = 12;
      } else {
        node = slot;
        depth++;
      }
    }
  }
  print(inserted);
  return 0;
}
|};
  }

let gsm_lite =
  {
    kname = "gsm";
    suite = MiBench;
    fuel = 60_000_000;
    src =
      {|
int samples[20000];
int residual[20000];
int main() {
  int n = 20000;
  for (int i = 0; i < n; i++) samples[i] = ((i * 113) % 511) - 255;
  // short-term LPC filter: an order-4 IIR recurrence (sequential)
  int h0 = 0; int h1 = 0; int h2 = 0; int h3 = 0;
  for (int i = 0; i < n; i++) {
    int pred = (h0 * 7 + h1 * 5 + h2 * 3 + h3) / 16;
    int r = samples[i] - pred;
    residual[i] = r;
    h3 = h2; h2 = h1; h1 = h0; h0 = samples[i];
  }
  // quantization energy: data-parallel
  int energy = 0;
  for (int i = 0; i < n; i++) {
    int q = residual[i] >> 2;
    energy += q * q;
  }
  print(energy);
  return 0;
}
|};
  }

let blocksort =
  {
    kname = "blocksort";
    suite = MiBench;
    fuel = 90_000_000;
    src =
      {|
int data[16384];
int out[512];
int tmp[32];
int main() {
  int nblocks = 512;
  for (int i = 0; i < nblocks*32; i++) data[i] = (i * 2654435761) & 8191;
  // each block is copied into the shared scratch buffer, insertion-sorted
  // there, and summarized: the scratch carries apparent loop dependences
  // that memory-object cloning removes
  for (int b = 0; b < nblocks; b++) {
    for (int j = 0; j < 32; j++) tmp[j] = data[b*32 + j];
    for (int j = 1; j < 32; j++) {
      int key = tmp[j];
      int k = j - 1;
      while (k >= 0 && tmp[k] > key) {
        tmp[k+1] = tmp[k];
        k = k - 1;
      }
      tmp[k+1] = key;
    }
    out[b] = tmp[0] * 3 + tmp[31];
  }
  int chk = 0;
  for (int b = 0; b < nblocks; b++) chk += out[b] * (b & 15);
  print(chk);
  return 0;
}
|};
  }

(* ------------------------------------------------------------------ *)
(* Tool-specific drivers                                               *)
(* ------------------------------------------------------------------ *)

let montecarlo =
  {
    kname = "montecarlo";
    suite = Parsec;
    fuel = 60_000_000;
    src =
      {|
int main() {
  srand(42);
  int n = 20000;
  int inside = 0;
  for (int i = 0; i < n; i++) {
    int a = rand() % 1024;
    int b = rand() % 1024;
    if (a * a + b * b < 1048576) inside++;
  }
  print(inside);
  float pi4 = (float)inside / (float)n;
  print((int)(pi4 * 10000.0));
  return 0;
}
|};
  }

let histogram =
  {
    kname = "histogram";
    suite = Spec;
    fuel = 60_000_000;
    src =
      {|
int data[30000];
int hist[30000];
int main() {
  int n = 30000;
  for (int i = 0; i < n; i++) { data[i] = i; hist[i] = 0; }
  for (int i = 0; i < n; i++) {
    int b = data[i];
    hist[b] = hist[b] + 1 + (b & 3);
  }
  int sum = 0;
  for (int i = 0; i < n; i++) sum += hist[i];
  print(sum);
  return 0;
}
|};
  }

let deadcode_driver =
  {
    kname = "deadcalls";
    suite = MiBench;
    fuel = 10_000_000;
    src =
      {|
int helper_used(int x) { return x * 3 + 1; }
int helper_dead1(int x) { int s = 0; for (int i = 0; i < 10; i++) s += x * i; return s; }
int helper_dead2(int x) { return helper_dead1(x) + 7; }
int helper_dead3(int x) { return helper_dead2(x) * helper_dead1(x); }
float fhelper_dead(float x) { return x * 2.5 + sqrt(x); }
int via_ptr(int x) { return x - 4; }
int dead_via_ptr(int x) { return x + 900; }
int dispatch(int x) {
  int* table[2];
  table[0] = (int*)via_ptr;
  table[1] = (int*)via_ptr;
  int idx = x & 1;
  return table[idx](x);
}
int main() {
  int s = 0;
  for (int i = 0; i < 5000; i++) {
    s += helper_used(i);
    s += dispatch(i);
  }
  print(s);
  return 0;
}
|};
  }

(** The full corpus, in a stable order. *)
let all : kernel list =
  [
    bitcount; crc32; sha_lite; dijkstra_lite; stringsearch; susan_lite;
    basicmath; qsort_lite; adpcm_lite; jpeg_dct; patricia_lite; gsm_lite;
    blocksort;
    blackscholes_lite; swaptions_lite; streamcluster_lite; fluidanimate_lite;
    ferret_lite; dedup_lite; canneal_lite;
    lbm_lite; mcf_lite; namd_lite; xz_lite; x264_lite;
    montecarlo; histogram; deadcode_driver;
  ]

let find name = List.find_opt (fun k -> String.equal k.kname name) all

(** Compile a kernel to a fresh verified module. *)
let compile (k : kernel) : Ir.Irmod.t = Minic.Lower.compile ~name:k.kname k.src

(** Compile the named kernels, in order, to fresh [(name, module)] pairs —
    the corpus shape the serve loop takes.  Raises [Invalid_argument] on
    a name that is not in {!all}. *)
let corpus (names : string list) : (string * Ir.Irmod.t) list =
  List.map
    (fun name ->
      match find name with
      | Some k -> (name, compile k)
      | None -> invalid_arg ("Kernels.corpus: unknown kernel " ^ name))
    names
