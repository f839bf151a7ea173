//! A reusable world: long-lived rank threads that run many jobs.
//!
//! [`crate::World::run`] spawns and joins `p` scoped threads per call —
//! right for tests, wasteful for a daemon that multiplies thousands of
//! times. A [`PersistentWorld`] spawns its rank workers **once**; each
//! [`PersistentWorld::run_job`] hands every worker one closure over a fresh
//! per-job fabric, so jobs are fully isolated from each other (separate
//! mailboxes, traffic counters, and [`RunReport`]s) while the threads — and
//! the warmed kernel pool underneath them — persist.
//!
//! # Panic containment
//!
//! A rank panic inside a job is caught (`catch_unwind`) and surfaced as
//! [`JobPanic`] instead of crashing the process, and the workers survive to
//! take the next job. The same caveat as [`crate::World::run`] applies: if
//! a panic fires on *some* ranks only, the others may block forever waiting
//! for messages that will never come — so callers (the `ca3dmm-serve`
//! request path) must validate inputs up front, leaving only
//! deterministic-across-ranks panics possible inside a job.

use crate::world::{run_rank, RankCtx, RunOptions, RunReport, RunSetup, RANK_STACK_SIZE};
use std::sync::{mpsc, Arc, Mutex, PoisonError};

/// One rank of one job: runs on the worker thread owning that rank slot.
type Job = Box<dyn FnOnce() + Send>;

/// A rank panicked inside a [`PersistentWorld::run_job`] job.
#[derive(Clone, Debug)]
pub struct JobPanic {
    /// Lowest-numbered rank that panicked.
    pub rank: usize,
    /// Its panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

impl std::error::Error for JobPanic {}

struct Worker {
    tx: mpsc::Sender<Job>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// `p` long-lived rank threads, fed one job per rank per
/// [`PersistentWorld::run_job`]. Dropping the world closes the job channels
/// and joins the workers.
pub struct PersistentWorld {
    p: usize,
    workers: Vec<Worker>,
    /// Serializes jobs: two concurrent `run_job` calls on one world would
    /// interleave their rank closures across the same worker set and
    /// deadlock. Held for the full duration of a job.
    gate: Mutex<()>,
}

impl PersistentWorld {
    /// Spawns `p` rank workers.
    pub fn new(p: usize) -> PersistentWorld {
        assert!(p > 0, "world size must be positive");
        let workers = (0..p)
            .map(|rank| {
                let (tx, rx) = mpsc::channel::<Job>();
                let handle = std::thread::Builder::new()
                    .name(format!("pworld-rank-{rank}"))
                    .stack_size(RANK_STACK_SIZE)
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("failed to spawn persistent rank worker");
                Worker {
                    tx,
                    handle: Some(handle),
                }
            })
            .collect();
        PersistentWorld {
            p,
            workers,
            gate: Mutex::new(()),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.p
    }

    /// Runs `f` once per rank over a fresh fabric, like
    /// [`crate::World::run_opts`], but on the persistent workers. Returns
    /// the per-rank results in rank order plus the job's own [`RunReport`].
    ///
    /// Jobs on one world serialize (an internal gate); give concurrent
    /// streams their own `PersistentWorld` each.
    ///
    /// # Errors
    /// [`JobPanic`] if any rank's closure panicked; the workers remain
    /// usable for subsequent jobs.
    pub fn run_job<R, F>(&self, opts: RunOptions, f: F) -> Result<(Vec<R>, RunReport), JobPanic>
    where
        R: Send + 'static,
        F: Fn(&RankCtx) -> R + Send + Sync + 'static,
    {
        // A job that panicked poisons nothing this gate protects.
        let _job = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let p = self.p;
        let (setup, receivers) = RunSetup::new(p, &opts, None);
        let setup = Arc::new(setup);
        let f = Arc::new(f);

        let (res_tx, res_rx) = mpsc::channel();
        for (rank, rx) in receivers.into_iter().enumerate() {
            let (setup, f, res_tx) = (Arc::clone(&setup), Arc::clone(&f), res_tx.clone());
            let job: Job = Box::new(move || {
                // The receiver may be gone if the caller bailed early;
                // nothing to do.
                let _ = res_tx.send((rank, run_rank(&setup, rank, rx, &*f)));
            });
            self.workers[rank]
                .tx
                .send(job)
                .expect("persistent rank worker died");
        }
        drop(res_tx);

        let mut slots: Vec<_> = (0..p).map(|_| None).collect();
        for _ in 0..p {
            let (rank, out) = res_rx.recv().expect("rank worker dropped its result");
            slots[rank] = Some(out);
        }
        // Collecting in rank order stops at the lowest rank that panicked.
        let outputs = slots
            .into_iter()
            .enumerate()
            .map(|(rank, out)| {
                out.expect("every rank reported")
                    .map_err(|message| JobPanic { rank, message })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(setup.assemble_report(outputs))
    }
}

impl Drop for PersistentWorld {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop.
        for w in &mut self.workers {
            let (dead_tx, _) = mpsc::channel();
            w.tx = dead_tx;
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Comm;

    #[test]
    fn jobs_reuse_the_same_workers() {
        let w = PersistentWorld::new(4);
        let (ids_a, _) = w
            .run_job(RunOptions::default(), |_ctx| {
                std::thread::current().name().map(str::to_owned)
            })
            .unwrap();
        let (ids_b, _) = w
            .run_job(RunOptions::default(), |ctx| {
                let _ = ctx.world_rank();
                std::thread::current().name().map(str::to_owned)
            })
            .unwrap();
        assert_eq!(ids_a, ids_b);
        assert_eq!(ids_a[2].as_deref(), Some("pworld-rank-2"));
    }

    #[test]
    fn jobs_communicate_and_report_independently() {
        let w = PersistentWorld::new(3);
        for round in 0..3u64 {
            let (sums, report) = w
                .run_job(RunOptions::default(), move |ctx| {
                    ctx.set_phase("ring");
                    let world = Comm::world(ctx);
                    let me = world.rank();
                    let p = world.size();
                    let payload = vec![round + me as u64];
                    let got: Vec<u64> =
                        world.sendrecv(ctx, (me + 1) % p, (me + p - 1) % p, 7, payload);
                    got[0]
                })
                .unwrap();
            let expect: Vec<u64> = (0..3).map(|me| round + ((me + 2) % 3) as u64).collect();
            assert_eq!(sums, expect);
            // each job's report counts only its own traffic: 3 sends of 8 bytes
            assert_eq!(report.phase_total("ring").msgs, 3);
            assert_eq!(report.phase_total("ring").bytes, 3 * 8);
        }
    }

    #[test]
    fn panics_are_contained_and_workers_survive() {
        let w = PersistentWorld::new(2);
        let err = w
            .run_job(RunOptions::default(), |_ctx| {
                panic!("deterministic validation failure");
            })
            .map(|_| ())
            .unwrap_err();
        assert!(err.message.contains("deterministic validation failure"));
        assert_eq!(err.rank, 0, "lowest panicking rank wins");
        // the world still works
        let (vals, _) = w
            .run_job(RunOptions::default(), |ctx| ctx.world_rank() * 10)
            .unwrap();
        assert_eq!(vals, vec![0, 10]);
    }

    #[test]
    fn kernel_budget_is_reasserted_per_job() {
        let w = PersistentWorld::new(2);
        let opts = RunOptions {
            kernel_threads_per_rank: Some(3),
            ..RunOptions::default()
        };
        let (widths, _) = w.run_job(opts, |_| dense::pool::gemm_threads()).unwrap();
        assert_eq!(widths, vec![3, 3]);
        let (widths, _) = w
            .run_job(RunOptions::default(), |_| dense::pool::gemm_threads())
            .unwrap();
        let expect = dense::pool::rank_threads_for(2);
        assert_eq!(widths, vec![expect, expect]);
    }

    #[test]
    fn traced_jobs_build_timelines() {
        let w = PersistentWorld::new(2);
        let (_, report) = w
            .run_job(RunOptions::traced(), |ctx| {
                ctx.set_phase("work");
            })
            .unwrap();
        assert_eq!(report.timeline.ranks(), 2);
        assert!(report.timeline.spans(0)[0].secs() >= 0.0);
        assert_eq!(report.timeline.phases(), vec!["work".to_owned()]);
    }
}
