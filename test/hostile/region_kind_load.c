/* expect: access outside the chip's memory */
/* A load from region kind 3, which the address layout does not have
   (0 private, 1 shared DRAM, 2 MPB): the run must stop with a runtime
   error. */
int main(void) {
  int *p = (int *) ((3L << 40) + 64);
  return *p;
}
