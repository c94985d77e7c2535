/* A block's declarations end with the block: the second block reads the
   global y, and the inner z leaves the outer z alone.  gcc prints 3 and
   1. */
#include <stdio.h>

int y = 3;

int main() {
    {
        int y = 1;
    }
    {
        printf("%d\n", y);
    }
    int z = 1;
    {
        int z = 2;
    }
    printf("%d\n", z);
    return 0;
}
