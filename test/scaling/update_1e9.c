/* A saxpy-shaped nest with a billion parallel iterations under
   schedule(static,1).  The analytic cost model must count its false
   sharing exactly without walking the array: 8 threads, 4-byte
   elements and 64-byte lines give 84 cases per 16-element line,
   5.25 per iteration and 5250000000 in all. */
#define N 1000000000

float x[N];
float y[N];

void saxpy(void) {
  int i;
  #pragma omp parallel for private(i) schedule(static,1)
  for (i = 0; i < N; i++) {
    y[i] += 2.5 * x[i];
  }
}
