//! The open-loop load generator and its verdicts.
//!
//! Requests are sent on a fixed schedule whether or not earlier ones have
//! completed, as independent users would, so a stall shows up as waiting
//! in every request that fell due during it: latency is timed from the
//! *due* time, not the send time. The generator spin-waits to the due
//! time; how late it ran is itself reported (`driver.send_late_p99_us`),
//! because a late generator silently turns an open loop into a closed one.

use crate::stats::percentile;
use std::time::Instant;

/// Time as the scheduler sees it; tests substitute a fake.
pub trait Clock {
    /// Nanoseconds since the schedule's origin.
    fn now_ns(&self) -> u64;
    /// Return no earlier than `t_ns` (immediately if already past).
    fn wait_until(&self, t_ns: u64);
}

/// Wall-clock time from a shared origin; waits by spinning, because a
/// sleep's wake-up slack (≈ 50 µs) is of the order of what is measured.
pub struct SpinClock(pub Instant);

impl Clock for SpinClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    #[inline]
    fn wait_until(&self, t_ns: u64) {
        while self.now_ns() < t_ns {
            std::hint::spin_loop();
        }
    }
}

/// One open-loop request as timed by the generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When it was sent (≥ due; later when the generator was behind).
    pub sent_ns: u64,
    /// When the reply arrived.
    pub done_ns: u64,
    /// Whether the request succeeded and its reply was correct.
    pub ok: bool,
}

impl Sample {
    /// Latency as a user who arrived at the due time saw it.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator sent it.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// Run one generator thread's schedule: request `i` is sent at
/// `due_ns[i]` or as soon after as the previous reply allows, by calling
/// `serve(i)`, which reports success.
pub fn run_schedule<C: Clock>(
    clock: &C,
    due_ns: &[u64],
    mut serve: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(due_ns.len());
    for (i, &due) in due_ns.iter().enumerate() {
        clock.wait_until(due);
        let sent = clock.now_ns();
        let ok = serve(i);
        out.push(Sample {
            due_ns: due,
            sent_ns: sent,
            done_ns: clock.now_ns(),
            ok,
        });
    }
    out
}

/// The largest number of requests that were due but not yet sent at any
/// send instant of one generator thread (its samples, in send order).
pub fn backlog_max(samples: &[Sample]) -> usize {
    samples
        .iter()
        .enumerate()
        .map(|(j, s)| {
            samples
                .partition_point(|x| x.due_ns <= s.sent_ns)
                .saturating_sub(j + 1)
        })
        .max()
        .unwrap_or(0)
}

/// The verdict on one offered rate.
#[derive(Clone, Debug, PartialEq)]
pub struct RateVerdict {
    /// Requests that failed.
    pub failed: usize,
    /// p99 latency from due time, ns (a failed request counts as
    /// `u64::MAX`: it misses any limit).
    pub p99_ns: u64,
    /// Requests per second over the span of the due times.
    pub offered_rps: f64,
    /// Completions per second over the span from first due to last reply.
    pub achieved_rps: f64,
    /// Mean generator lateness over the first quarter of the schedule, ns.
    pub late_first_ns: f64,
    /// Mean generator lateness over the last quarter, ns.
    pub late_last_ns: f64,
    /// Whether the rate is sustained within the limit.
    pub pass: bool,
}

/// Judge one rate from the samples of all generator threads: it passes
/// when p99 ≤ `slo_ns`, nothing failed, the achieved rate is at least
/// 0.98 × the offered rate, and the backlog is not growing — the last
/// quarter's mean lateness is within `slo_ns` of the first quarter's. A
/// run can meet its p99 while falling steadily behind; that is a queue
/// that has not yet blown up, not a sustainable rate.
///
/// The offered rate is taken from the schedule itself (requests over the
/// span of their due times), not from the nominal rate: a Poisson
/// schedule of a thousand arrivals is off its nominal rate by a few
/// percent, which would otherwise decide the 0.98 test by the seed.
pub fn judge_rate(samples: &[Sample], slo_ns: u64) -> RateVerdict {
    let mut by_due: Vec<&Sample> = samples.iter().collect();
    by_due.sort_by_key(|s| s.due_ns);
    let failed = samples.iter().filter(|s| !s.ok).count();
    let mut lat: Vec<u64> = samples
        .iter()
        .map(|s| if s.ok { s.latency_ns() } else { u64::MAX })
        .collect();
    lat.sort_unstable();
    let p99_ns = percentile(&lat, 0.99);
    let (first_due, last_done) = (
        by_due.first().map_or(0, |s| s.due_ns),
        samples.iter().map(|s| s.done_ns).max().unwrap_or(0),
    );
    let last_due = by_due.last().map_or(0, |s| s.due_ns);
    let rate_over = |span_ns: u64| {
        if span_ns > 0 {
            samples.len() as f64 * 1e9 / span_ns as f64
        } else {
            0.0
        }
    };
    let offered_rps = rate_over(last_due.saturating_sub(first_due));
    let achieved_rps = rate_over(last_done.saturating_sub(first_due));
    let quarter = (by_due.len() / 4).max(1).min(by_due.len());
    let mean_late = |part: &[&Sample]| {
        if part.is_empty() {
            0.0
        } else {
            part.iter().map(|s| s.lateness_ns() as f64).sum::<f64>() / part.len() as f64
        }
    };
    let late_first_ns = mean_late(&by_due[..quarter]);
    let late_last_ns = mean_late(&by_due[by_due.len() - quarter..]);
    let pass = !samples.is_empty()
        && failed == 0
        && p99_ns <= slo_ns
        && achieved_rps >= 0.98 * offered_rps
        && late_last_ns <= late_first_ns + slo_ns as f64;
    RateVerdict {
        failed,
        p99_ns,
        offered_rps,
        achieved_rps,
        late_first_ns,
        late_last_ns,
        pass,
    }
}

/// The highest rate of an ascending ladder that passes with every lower
/// rate passing too; 0 when the lowest fails.
pub fn highest_sustained(ladder: &[(f64, bool)]) -> f64 {
    ladder
        .iter()
        .take_while(|(_, pass)| *pass)
        .last()
        .map_or(0.0, |(rate, _)| *rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: waiting jumps to the target,
    /// serving advances by the service time.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            if self.0.get() < t_ns {
                self.0.set(t_ns);
            }
        }
    }

    fn drive(gap_ns: u64, service_ns: u64, n: usize) -> Vec<Sample> {
        let clock = FakeClock(Cell::new(0));
        let due: Vec<u64> = (1..=n as u64).map(|i| i * gap_ns).collect();
        run_schedule(&clock, &due, |_| {
            clock.0.set(clock.0.get() + service_ns);
            true
        })
    }

    #[test]
    fn underloaded_schedule_sends_on_time_and_passes() {
        // 1 000 req/s offered, 0.4 ms service: never behind.
        let s = drive(1_000_000, 400_000, 2_000);
        assert!(s.iter().all(|x| x.sent_ns == x.due_ns));
        assert!(s.iter().all(|x| x.latency_ns() == 400_000));
        assert_eq!(backlog_max(&s), 0);
        let v = judge_rate(&s, 1_000_000);
        assert!(v.pass, "{v:?}");
        assert_eq!(v.p99_ns, 400_000);
        assert!((v.offered_rps - 1_000.0).abs() < 1.0);
        assert!((v.achieved_rps - 1_000.0).abs() < 1.0);
    }

    #[test]
    fn latency_counts_from_the_due_time_after_a_stall() {
        // One 5 ms stall on the first request; the generator catches up
        // because service (0.1 ms) is faster than arrivals (1 ms). The
        // requests that fell due during the stall carry its wait.
        let clock = FakeClock(Cell::new(0));
        let due: Vec<u64> = (1..=20u64).map(|i| i * 1_000_000).collect();
        let s = run_schedule(&clock, &due, |i| {
            let service = if i == 0 { 5_000_000 } else { 100_000 };
            clock.0.set(clock.0.get() + service);
            true
        });
        assert_eq!(s[0].latency_ns(), 5_000_000);
        assert_eq!(s[1].sent_ns, 6_000_000, "sent when the stall ended");
        assert_eq!(s[1].latency_ns(), 4_100_000, "due at 2 ms, done at 6.1 ms");
        assert!(s[1].lateness_ns() > 0);
        assert_eq!(s[19].lateness_ns(), 0, "caught up");
        assert_eq!(backlog_max(&s), 4, "due at 3..=6 ms were waiting at 6 ms");
    }

    #[test]
    fn overload_fails_on_backlog_even_when_early_latency_is_fine() {
        // Service 1.05 ms against 1 ms arrivals: 5 % overload. Lateness
        // grows by 50 µs per request without bound.
        let s = drive(1_000_000, 1_050_000, 4_000);
        let v = judge_rate(&s, u64::MAX / 4);
        assert!(v.late_last_ns > v.late_first_ns);
        assert!(v.achieved_rps < 0.98 * v.offered_rps);
        assert!(!v.pass);
        // With a finite limit the growing backlog fails it too.
        let v = judge_rate(&s, 20_000_000);
        assert!(v.late_last_ns > v.late_first_ns + 20_000_000.0);
        assert!(!v.pass);
        assert!(backlog_max(&s) > 100);
    }

    #[test]
    fn a_failed_request_fails_the_rate_and_misses_any_limit() {
        let mut s = drive(1_000_000, 100_000, 50);
        s[10].ok = false;
        let v = judge_rate(&s, 1_000_000);
        assert_eq!(v.failed, 1);
        assert_eq!(v.p99_ns, u64::MAX);
        assert!(!v.pass);
    }

    #[test]
    fn highest_sustained_stops_at_the_first_failure() {
        assert_eq!(
            highest_sustained(&[(1.0, true), (2.0, true), (3.0, false), (4.0, true)]),
            2.0
        );
        assert_eq!(highest_sustained(&[(1.0, false), (2.0, true)]), 0.0);
        assert_eq!(highest_sustained(&[]), 0.0);
    }
}
