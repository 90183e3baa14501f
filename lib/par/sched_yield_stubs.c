/* The native backend's OS-level yield: [Thread.yield] only hands the
   domain lock to another systhread of the same domain, so a spinning
   waiter would otherwise keep its CPU until the kernel preempts it. */

#include <sched.h>
#include <caml/mlvalues.h>

value ts_par_sched_yield(value unit)
{
  (void)unit;
  sched_yield();
  return Val_unit;
}
