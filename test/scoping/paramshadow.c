/* A parameter shadows the global of its name, and a block local
   shadows the parameter only inside its block.  gcc prints 107 and
   4. */
#include <stdio.h>

int n = 4;

int f(int n) {
    int r = 0;
    {
        int n = 100;
        r = n;
    }
    return n + r;
}

int main() {
    printf("%d\n", f(7));
    printf("%d\n", n);
    return 0;
}
