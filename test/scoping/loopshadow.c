/* A declaration is visible from its own position on, in every round of
   the loop: the first addition reads the global x each time.  gcc
   prints 33. */
#include <stdio.h>

int x = 1;

int main() {
    int sum = 0;
    for (int i = 0; i < 3; i++) {
        sum += x;
        int x = 10;
        sum += x;
    }
    printf("%d\n", sum);
    return 0;
}
