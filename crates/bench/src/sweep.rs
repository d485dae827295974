//! Deterministic parallel sweep executor.
//!
//! Experiments like Fig 13 (6 scales × 6 strategies) and Fig 21 (53
//! weeks × 2 stacks) are embarrassingly parallel: every (scenario,
//! seed) run builds its own world and shares nothing mutable. A
//! [`SweepRunner`] fans such jobs out over scoped worker threads and
//! merges the results **in job order**, so the output of every sweep is
//! byte-identical to the serial path at any worker count — the same
//! discipline as the CP solver's generation step. Each job must therefore
//! be a pure function of its index (own RNGs seeded from the job
//! parameters, own `SimWorld`, no global sinks written mid-job).

/// Fans independent jobs over scoped threads, merging in job order.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    workers: usize,
}

impl SweepRunner {
    /// A runner with exactly `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> SweepRunner {
        SweepRunner {
            workers: workers.max(1),
        }
    }

    /// One worker per core the machine offers. The worker count never
    /// changes results, so the experiments take all of them.
    pub fn per_core() -> SweepRunner {
        SweepRunner::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `job(0..n_jobs)` and return the results indexed by job id.
    ///
    /// Jobs are distributed by work-stealing (an atomic cursor), so
    /// completion *order* varies with the worker count — but each
    /// result lands in its job's slot and `job` must be index-pure, so
    /// the returned `Vec` is identical to the serial evaluation.
    pub fn run<T, F>(&self, n_jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers <= 1 || n_jobs <= 1 {
            return (0..n_jobs).map(job).collect();
        }
        let n_threads = self.workers.min(n_jobs);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n_jobs);
        slots.resize_with(n_jobs, || None);

        let collected: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= n_jobs {
                                break;
                            }
                            mine.push((i, job(i)));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        for (i, t) in collected.into_iter().flatten() {
            slots[i] = Some(t);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_in_job_order() {
        let serial = SweepRunner::new(1).run(20, |i| i * i);
        let parallel = SweepRunner::new(8).run(20, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn handles_edge_counts() {
        assert!(SweepRunner::new(4).run(0, |i| i).is_empty());
        assert_eq!(SweepRunner::new(4).run(1, |i| i + 7), vec![7]);
        assert_eq!(SweepRunner::new(0).workers(), 1);
        // More workers than jobs.
        assert_eq!(SweepRunner::new(64).run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn per_core_uses_every_core_and_matches_serial() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let runner = SweepRunner::per_core();
        assert_eq!(runner.workers(), cores);
        assert_eq!(
            runner.run(17, |i| i * 3 + 1),
            SweepRunner::new(1).run(17, |i| i * 3 + 1)
        );
    }
}
