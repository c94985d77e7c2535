/* expect: access outside the chip's memory */
/* A load from the MPB slice of core 200, which a 48-core chip does not
   have: the run must stop with a runtime error before the address
   reaches the memory model. */
int main(void) {
  int *p = (int *) ((2L << 40) | (200L << 32) | 64);
  return *p;
}
