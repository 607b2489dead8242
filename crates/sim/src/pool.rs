//! [`WorkerPool`]: a reusable std-only thread pool for per-round fan-out.
//!
//! `basecache_experiments::parallel_sweep` spins up scoped threads per
//! sweep — fine for a one-shot batch of independent configs, but a
//! cluster steps its cells every round, and respawning threads each
//! round would dominate the work being parallelized. The pool keeps its
//! workers alive across rounds: jobs are boxed `FnOnce` closures pushed
//! onto a shared channel, workers race to pull them, and results flow
//! back over whatever channel the caller baked into the closure.
//!
//! Determinism is the caller's contract, not the pool's: jobs complete
//! in a nondeterministic order, so callers that need reproducible output
//! must tag jobs with an index and reassemble in index order (as
//! `basecache_cluster` does). The pool itself adds no ordering, no
//! shared state beyond the job queue, and no unsafe code.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of named worker threads executing boxed jobs.
///
/// Dropping the pool closes the job channel and joins every worker, so
/// all submitted jobs are guaranteed to have run by then.
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    machine_parallelism: usize,
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let machine_parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<Job>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("basecache-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while pulling the next job;
                        // a worker running a job never blocks the others.
                        let job = match receiver.lock() {
                            Ok(rx) => rx.recv(),
                            Err(_) => break,
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // channel closed: pool dropped
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
            machine_parallelism,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Whether [`Self::scatter_gather`] will actually fan multi-job
    /// batches out to the workers. On a single-hardware-thread machine
    /// dispatch can only add channel and wake-up overhead (measured at
    /// 0.72x on 16-cell cluster rounds in a 1-core container), so the
    /// pool runs such batches inline and this reports `false`. Bench
    /// reports use it to record which path actually ran.
    pub fn fans_out(&self) -> bool {
        self.threads() > 1 && self.machine_parallelism > 1
    }

    /// Submit a job. Jobs run in submission-race order on whichever
    /// worker is free; completion order is unspecified.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("pool sender alive until drop")
            .send(Box::new(job))
            .expect("worker threads alive until drop");
    }

    /// Run `f` over `jobs` on the pool and return the outputs in input
    /// order. Blocks until every job has completed.
    ///
    /// Batches that cannot benefit from fan-out — one job, a
    /// single-worker pool, or a single-hardware-thread machine (see
    /// [`Self::fans_out`]) — run inline on the calling thread, skipping
    /// the boxing, channel and wake-up costs entirely. The outputs are
    /// identical either way (input order, same closure).
    pub fn scatter_gather<I, O, F>(&self, jobs: Vec<I>, f: F) -> Vec<O>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(I) -> O + Send + Sync + 'static,
    {
        if jobs.len() <= 1 || !self.fans_out() {
            return jobs.into_iter().map(f).collect();
        }
        let n = jobs.len();
        let f = Arc::new(f);
        let (tx, rx) = channel::<(usize, O)>();
        for (index, job) in jobs.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            self.execute(move || {
                let out = f(job);
                // Receiver outlives the round unless the caller panicked;
                // in that case dropping the result is the right move.
                let _ = tx.send((index, out));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
        for (index, out) in rx {
            slots[index] = Some(out);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every job reports exactly once"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel makes every idle worker's recv() fail.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_every_job() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers, so all jobs have run
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn scatter_gather_preserves_input_order() {
        let pool = WorkerPool::new(3);
        let out = pool.scatter_gather((0..50u64).collect(), |x| x * 2);
        assert_eq!(out, (0..50u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_rounds() {
        let pool = WorkerPool::new(2);
        for round in 0..10u64 {
            let out = pool.scatter_gather(vec![round, round + 1], |x| x + 1);
            assert_eq!(out, vec![round + 1, round + 2]);
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.scatter_gather(vec![7], |x: u64| x), vec![7]);
    }

    #[test]
    fn small_batches_run_inline_with_identical_results() {
        // One job (any pool size) and one worker (any batch size) both
        // take the inline path; results must match the dispatched path.
        let pool = WorkerPool::new(4);
        assert_eq!(pool.scatter_gather(vec![21u64], |x| x * 2), vec![42]);
        assert_eq!(pool.scatter_gather(Vec::<u64>::new(), |x| x), vec![]);
        let single = WorkerPool::new(1);
        let out = single.scatter_gather((0..20u64).collect(), |x| x + 5);
        assert_eq!(out, (5..25u64).collect::<Vec<_>>());
    }

    #[test]
    fn fans_out_reflects_pool_and_machine_shape() {
        let pool = WorkerPool::new(4);
        // A single-worker pool never dispatches, whatever the machine.
        let single = WorkerPool::new(1);
        assert!(!single.fans_out());
        // A multi-worker pool dispatches exactly when the machine has
        // more than one hardware thread; either way scatter_gather's
        // results are the inline results.
        assert_eq!(
            pool.fans_out(),
            pool.machine_parallelism > 1,
            "fan-out must track the machine"
        );
        let out = pool.scatter_gather((0..40u64).collect(), |x| x + 3);
        assert_eq!(out, (3..43u64).collect::<Vec<_>>());
    }
}
