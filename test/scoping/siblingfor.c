/* Each for loop's declaration covers only its own loop, so two sibling
   loops may both declare i.  gcc prints 6. */
#include <stdio.h>

int main() {
    int s = 0;
    for (int i = 0; i < 3; i++) s += i;
    for (int i = 1; i < 3; i++) s += i;
    printf("%d\n", s);
    return 0;
}
