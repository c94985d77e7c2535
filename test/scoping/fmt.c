/* printf's flags, width, precision and conversions as C prints them.
   gcc prints ff|   42|7   |00042 and 3.14|   3.142|3.14159|3.141593e+00. */
#include <stdio.h>

int main() {
    double pi = 3.14159265;
    printf("%x|%5d|%-4d|%05d\n", 255, 42, 7, 42);
    printf("%.2f|%8.3f|%g|%e\n", pi, pi, pi, pi);
    return 0;
}
