//! A `std::thread` worker pool with deterministic join order.
//!
//! Jobs are pulled from a shared queue by `N` scoped workers; each result
//! is written into the slot matching its submission index, so
//! [`run_ordered`] returns outputs in exactly the order the jobs were
//! passed in — regardless of scheduling. Downstream consumers (the table
//! renderers) therefore produce byte-identical output at any worker count.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Scheduler-level statistics for one [`run_ordered`] call.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolStats {
    /// Jobs executed.
    pub jobs_run: u64,
    /// Workers the pool ran with.
    pub workers: usize,
    /// Total time jobs spent queued before a worker picked them up,
    /// summed across jobs.
    pub queue_wait: Duration,
    /// Wall time from submission to the last join.
    pub wall: Duration,
}

impl PoolStats {
    /// Records this run into the global observability registry (no-op
    /// while instrumentation is disabled). `engine.workers` accumulates
    /// across runs; divide by `engine.runs` for the mean pool width. The
    /// `engine.queue_wait` samples are recorded per job, by [`picked_up`].
    fn record(&self) {
        if !phpsafe_obs::enabled() {
            return;
        }
        phpsafe_obs::count("engine.runs", 1);
        phpsafe_obs::count("engine.jobs_run", self.jobs_run);
        phpsafe_obs::count("engine.workers", self.workers as u64);
        phpsafe_obs::time("engine.wall", self.wall);
    }
}

/// A job of the run that started at `started` is picked up: its wait
/// since submission is one `engine.queue_wait` sample.
fn picked_up(started: Instant) -> Duration {
    let waited = started.elapsed();
    phpsafe_obs::time("engine.queue_wait", waited);
    waited
}

/// Resolves a user-requested worker count against the machine.
///
/// `--jobs 0` (or an absent value defaulted to 0) and `--jobs` beyond the
/// available parallelism both clamp to [`available_parallelism`]; the
/// second element is a warning for the CLI to surface when clamping
/// happened. Shared by the `repro`, `phpsafe` and `phpsafe serve` front
/// ends so every entry point resolves `--jobs` identically.
///
/// [`available_parallelism`]: std::thread::available_parallelism
pub fn effective_jobs(requested: usize) -> (usize, Option<String>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if requested == 0 {
        (
            cores,
            Some(format!(
                "--jobs 0 is not a worker count; using the available parallelism ({cores})"
            )),
        )
    } else if requested > cores {
        (
            cores,
            Some(format!(
                "--jobs {requested} exceeds the available parallelism; clamping to {cores} \
                 to avoid oversubscription"
            )),
        )
    } else {
        (requested, None)
    }
}

/// [`effective_jobs`] with the clamp warning printed to stderr in the
/// shared `warning: …` CLI format. The batch front ends (`repro`,
/// `phpsafe`, `phpsafe serve` startup) all surface clamping this way;
/// the daemon's per-request path keeps the raw pair so it can report
/// warnings in-band instead.
pub fn effective_jobs_reported(requested: usize) -> usize {
    let (jobs, warning) = effective_jobs(requested);
    if let Some(w) = warning {
        eprintln!("warning: {w}");
    }
    jobs
}

/// Runs `jobs` on `workers` threads; `run` receives each job plus its
/// submission index. Results come back in submission order.
///
/// With `workers <= 1` the jobs run inline on the calling thread (the
/// serial mode the Table III timing methodology compares against).
pub fn run_ordered<I, O, F>(jobs: Vec<I>, workers: usize, run: F) -> (Vec<O>, PoolStats)
where
    I: Send,
    O: Send,
    F: Fn(usize, I) -> O + Sync,
{
    let started = Instant::now();
    let n = jobs.len();
    let workers = workers.max(1).min(n.max(1));

    if workers == 1 {
        let mut queue_wait = Duration::ZERO;
        let outputs: Vec<O> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                // A job "waits" from submission until it starts running.
                queue_wait += picked_up(started);
                run(i, job)
            })
            .collect();
        let stats = PoolStats {
            jobs_run: n as u64,
            workers: 1,
            queue_wait,
            wall: started.elapsed(),
        };
        stats.record();
        return (outputs, stats);
    }

    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let waited_ns = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = queue.lock().unwrap().pop_front();
                let Some((idx, item)) = job else { break };
                let waited = picked_up(started).as_nanos() as u64;
                waited_ns.fetch_add(waited, Ordering::Relaxed);
                let out = run(idx, item);
                *slots[idx].lock().unwrap() = Some(out);
            });
        }
    });

    let outputs: Vec<O> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker completed every dequeued job")
        })
        .collect();
    let stats = PoolStats {
        jobs_run: n as u64,
        workers,
        queue_wait: Duration::from_nanos(waited_ns.load(Ordering::Relaxed)),
        wall: started.elapsed(),
    };
    stats.record();
    (outputs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order() {
        let jobs: Vec<u64> = (0..64).collect();
        for workers in [1, 2, 4, 8] {
            let (out, stats) = run_ordered(jobs.clone(), workers, |i, j| {
                // Vary per-job latency so fast jobs finish out of order.
                let spin = (j % 7) * 1000;
                std::hint::black_box((0..spin).sum::<u64>());
                (i, j * 2)
            });
            assert_eq!(out.len(), 64);
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!(*idx, i, "workers={workers}");
                assert_eq!(*doubled, jobs[i] * 2);
            }
            assert_eq!(stats.jobs_run, 64);
        }
    }

    #[test]
    fn identical_results_across_worker_counts() {
        let work = |_, j: u64| j.wrapping_mul(0x9e37).rotate_left(7);
        let jobs: Vec<u64> = (0..40).collect();
        let (serial, _) = run_ordered(jobs.clone(), 1, work);
        for workers in [2, 4, 8] {
            let (parallel, _) = run_ordered(jobs.clone(), workers, work);
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn empty_job_list() {
        let (out, stats) = run_ordered(Vec::<u8>::new(), 4, |_, j| j);
        assert!(out.is_empty());
        assert_eq!(stats.jobs_run, 0);
    }

    #[test]
    fn worker_count_capped_by_jobs() {
        let (out, stats) = run_ordered(vec![1, 2], 16, |_, j| j);
        assert_eq!(out, vec![1, 2]);
        assert!(stats.workers <= 2);
    }

    #[test]
    fn effective_jobs_clamps_zero_and_oversubscription() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (jobs, warn) = effective_jobs(0);
        assert_eq!(jobs, cores);
        assert!(warn.is_some(), "jobs=0 must warn");
        let (jobs, warn) = effective_jobs(cores + 100);
        assert_eq!(jobs, cores);
        assert!(warn.is_some(), "oversubscription must warn");
        let (jobs, warn) = effective_jobs(1);
        assert_eq!(jobs, 1);
        assert!(warn.is_none(), "a sane request passes through silently");
    }

    #[test]
    fn queue_wait_accumulates() {
        let (_, stats) = run_ordered((0..8).collect::<Vec<u64>>(), 2, |_, j| {
            std::thread::sleep(Duration::from_millis(1));
            j
        });
        // Later jobs waited while earlier ones ran.
        assert!(stats.queue_wait > Duration::ZERO);
        assert!(stats.wall > Duration::ZERO);
    }
}
