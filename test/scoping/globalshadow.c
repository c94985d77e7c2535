/* A block local shadows a global only inside its block: the local y is
   incremented, and the printf reads the global y.  gcc prints 3. */
#include <stdio.h>

int y = 3;

int main() {
    {
        int y = 1;
        y = y + 1;
    }
    printf("%d\n", y);
    return 0;
}
