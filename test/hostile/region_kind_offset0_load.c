/* expect: access outside the chip's memory */
/* A load from offset 0 of region kind 3: the address names no memory of
   the chip, so it is reported as such and not as a null pointer
   dereference. */
int main(void) {
  int *p = (int *) (3L << 40);
  return *p;
}
