/* Clocks and resource counters the OCaml standard library does not expose:
   per-thread CPU time (one OCaml domain runs on one thread) and per-process
   CPU time (every domain) to the nanosecond, a monotonic
   clock that does not allocate, the process's peak resident set and the
   number of online processors. */

#include <caml/mlvalues.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

CAMLprim value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

CAMLprim value perfbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

CAMLprim value perfbench_process_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

CAMLprim value perfbench_max_rss_kib(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

CAMLprim value perfbench_online_cpus(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_NPROCESSORS_ONLN));
}
