/* File-scope declarations of one name and one type declare one object:
   two tentative definitions and a later one with an initializer give x
   the value 3, which a function defined between them already reads.
   gcc prints 6. */
#include <stdio.h>

int x;
int x;

int twice(void) {
    return 2 * x;
}

int x = 3;

int main() {
    printf("%d\n", twice());
    return 0;
}
