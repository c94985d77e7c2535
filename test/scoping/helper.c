/* A thread body's local does not leak into the helper it calls: twice
   reads the global scale, not worker's local one.  gcc prints 42. */
#include <stdio.h>
#include <pthread.h>

int scale = 2;
int result;

int twice(int v) {
    return v * scale;
}

void *worker(void *arg) {
    int scale = 100;
    result = twice(21);
    pthread_exit(NULL);
}

int main() {
    pthread_t t;
    pthread_create(&t, NULL, worker, NULL);
    pthread_join(t, NULL);
    printf("%d\n", result);
    return 0;
}
