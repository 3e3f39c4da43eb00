/* saxpy under schedule(dynamic): the closed form certifies only the
   round-robin static deal, so the analytic Eq. 5 overhead (which counts
   the nest's own pragma) does not apply, while the Eq. 1 breakdown is
   still costed on the nest rewritten to schedule(static, fs_chunk). */

double x[4096];

double y[4096];

void init() {
  int i;
  for (i = 0; i < 4096; i += 1) {
    x[i] = 1.0 * i;
    y[i] = 0.5 * i;
  }
}

void saxpy() {
  int i;
  #pragma omp parallel for private(i) schedule(dynamic)
  for (i = 0; i < 4096; i += 1) {
    y[i] += 2.5 * x[i];
  }
}
