/* expect: store outside every allocation */
/* A store through a pointer made from an integer: no allocation holds
   the address, so the run must stop with a runtime error. */
int main(void) {
  int *p = (int *) 2000000000;
  *p = 1;
  return 0;
}
