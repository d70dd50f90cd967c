//! A fleet's persistent worker pool.
//!
//! Each [`crate::Fleet`] owns one [`Pool`], shared by the fleet's clones.
//! Its `workers` threads are spawned once, on the first submission (a
//! fleet that never submits costs no thread), park on a condvar when
//! idle, and are joined when the last handle drops. The drop drains the
//! queues first: every submitted task runs before the join returns.
//!
//! Tasks are owned `'static` closures. They carry everything they need
//! (jobs, batch context, output sender), so no task borrows from a
//! caller's stack and the pool needs no scoped threads and no `unsafe`.
//! A submission deals its tasks round-robin into the per-worker deques.
//! Each worker pops its own deque from the front (submission order) and,
//! when that is dry, steals the back-most task of a victim, visiting
//! victims in a seeded pseudo-random order. A worker parks only when
//! every deque is empty.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use manticore_util::SmallRng;

/// One unit of work on the pool.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// The queues and the lifecycle flag, under one lock.
struct Queues {
    /// One deque per worker thread.
    deques: Vec<VecDeque<Task>>,
    /// Round-robin dealing position, carried across submissions so
    /// one-task submissions spread over the workers too.
    deal: usize,
    /// Set by [`Pool`]'s `Drop`: workers exit once no task is left.
    shutdown: bool,
}

/// What the workers share with the handle.
struct Shared {
    queues: Mutex<Queues>,
    /// Signalled when tasks arrive or shutdown begins.
    work: Condvar,
}

impl Shared {
    /// Tasks never run under the lock and every update is a single push
    /// or pop, so a poisoned lock still guards valid queues.
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Long-lived worker threads with per-worker deques.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    /// Worker threads, fixed at construction.
    workers: usize,
    /// Empty until the first submission spawns all the workers.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// A pool of `workers` (at least 1) threads, none spawned yet.
    pub(crate) fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        Pool {
            workers,
            shared: Arc::new(Shared {
                queues: Mutex::new(Queues {
                    deques: (0..workers).map(|_| VecDeque::new()).collect(),
                    deal: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
            }),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// The number of worker threads the pool runs once started.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Deals `tasks` round-robin into the per-worker deques and wakes the
    /// workers, spawning them if this is the first submission. Returns at
    /// once; the tasks run on the pool.
    pub(crate) fn submit(&self, tasks: impl IntoIterator<Item = Task>) {
        self.start();
        let mut queues = self.shared.lock();
        for task in tasks {
            let at = queues.deal % self.workers;
            queues.deques[at].push_back(task);
            queues.deal = queues.deal.wrapping_add(1);
        }
        drop(queues);
        self.shared.work.notify_all();
    }

    /// Spawns the workers unless they are already running.
    fn start(&self) {
        let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        if !threads.is_empty() {
            return;
        }
        for w in 0..self.workers {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("fleet-worker-{w}"))
                .spawn(move || worker_loop(&shared, w))
                .expect("spawning a fleet worker thread");
            threads.push(handle);
        }
    }

    /// The ids of the spawned worker threads, in worker order, for tests
    /// that check where tasks ran.
    #[cfg(test)]
    pub(crate) fn thread_ids(&self) -> Vec<std::thread::ThreadId> {
        let threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        threads.iter().map(|h| h.thread().id()).collect()
    }

    /// A weak handle on the workers' shared state: it dies only once
    /// every worker has exited, so tests can observe the join.
    #[cfg(test)]
    pub(crate) fn liveness(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let spawned = self.threads.lock().map_or(0, |t| t.len());
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .field("spawned", &spawned)
            .finish()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        // A task that owned the last handle drops it on a worker thread;
        // that worker cannot join itself, and exits on its own once its
        // task returns.
        let me = std::thread::current().id();
        let threads = self
            .threads
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for handle in threads.drain(..) {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

/// One worker: run tasks until shutdown finds nothing left to run.
fn worker_loop(shared: &Shared, w: usize) {
    let mut rng = SmallRng::seed_from_u64(w as u64);
    let mut queues = shared.lock();
    loop {
        let task = match queues.deques[w].pop_front() {
            Some(task) => Some(task),
            None => steal(&mut queues.deques, w, &mut rng),
        };
        match task {
            Some(task) => {
                drop(queues);
                // Batch tasks contain their own panics and report them as
                // outputs; this guard only keeps a panicking caller-side
                // sink from taking a worker down with it.
                let _ = catch_unwind(AssertUnwindSafe(task));
                queues = shared.lock();
            }
            None if queues.shutdown => return,
            None => {
                queues = shared
                    .work
                    .wait(queues)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Takes the *back* task of a victim's deque: the work its owner would
/// reach last. The visit order starts at a random victim so stealers
/// spread out; every deque is visited, so `None` proves all are empty.
fn steal(deques: &mut [VecDeque<Task>], w: usize, rng: &mut SmallRng) -> Option<Task> {
    let n = deques.len();
    let offset = rng.gen_range(0..n);
    (0..n)
        .map(|i| (offset + i) % n)
        .filter(|&v| v != w)
        .find_map(|v| deques[v].pop_back())
}
