/* C binds names lexically: f reads the global x, never the local x of
   the main that calls it.  gcc prints 5. */
#include <stdio.h>

int x = 5;

int f() {
    return x;
}

int main() {
    int x = 7;
    printf("%d\n", f());
    return 0;
}
