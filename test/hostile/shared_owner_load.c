/* expect: access outside the chip's memory */
/* A load from shared DRAM with owner byte 1.  Shared DRAM is one region
   whose addresses carry owner 0, so any other owner would alias it: the
   run must stop with a runtime error. */
int main(void) {
  int *p = (int *) ((1L << 40) | (1L << 32) | 64);
  return *p;
}
