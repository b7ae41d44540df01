/* Monotonic nanoseconds for the benchmark's span recorder. */
#include <time.h>
#include <caml/mlvalues.h>

value pb_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
