/* expect: store outside every allocation */
/* A store far past the end of a global array: the offset lies beyond
   every allocation of the region, so the run must stop with a runtime
   error. */
int g[4];

int main(void) {
  g[100000000] = 2;
  return 0;
}
