/* expect: out of memory in private(core 0) */
/* Three 1.5 GB allocations need more than the 2^32 bytes a DRAM
   address's offset field reaches: the third must fail, not hand out an
   offset that carries into the owner bits and names core 1's private
   region.  Nothing is written, so no page is backed. */
int main(void) {
  char *a = malloc(1500000000);
  char *b = malloc(1500000000);
  char *c = malloc(1500000000);
  int *p = malloc(64);
  return *p;
}
