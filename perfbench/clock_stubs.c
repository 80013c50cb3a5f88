/* Monotonic nanosecond clock that neither allocates nor boxes, so a
   span's clock reads stay out of the minor-heap words it measures. */
#define _POSIX_C_SOURCE 199309L
#include <time.h>
#include <caml/mlvalues.h>

intnat perfbench_now_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns(value unit)
{
  return Val_long(perfbench_now_ns_unboxed(unit));
}
