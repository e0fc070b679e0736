//! The query engine's own helper threads.
//!
//! A [`QueryEngine`](crate::QueryEngine) answers a batch by striding its
//! queries over `threads` participants. Spawning and joining those threads
//! for every batch costs more than the LSH probe and re-rank of a small
//! batch, so an engine spawns its `threads − 1` helpers once, when it is
//! built; they park on a condvar between batches, and dropping the engine
//! stops and joins them.
//!
//! The calling thread is always participant 0 and wakes only as many helpers
//! as the batch has further participants. A run goes wholly inline on the
//! caller when it has one participant, when the engine has no helpers, and
//! when another caller's run holds the helpers: concurrent callers on one
//! shared engine neither block on each other nor deadlock.
//!
//! A panic on a helper is caught there and re-raised on the calling thread
//! with its original payload. The helper itself keeps serving, so a caller
//! that catches the panic still holds a working engine.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One run's work: `job(participant, participants)` for every participant.
pub(crate) type Job = Arc<dyn Fn(usize, usize) + Send + Sync>;

type Payload = Box<dyn Any + Send>;

#[derive(Default)]
struct State {
    /// The current run's work, present while a caller's run holds the
    /// helpers.
    job: Option<Job>,
    participants: usize,
    /// The next participant a waking helper claims (the caller is 0).
    next: usize,
    /// Claimed or unclaimed helper participants not yet finished.
    pending: usize,
    /// The first helper panic of the current run.
    panic: Option<Payload>,
    stop: bool,
    /// Runs handed to helpers so far.
    #[cfg(test)]
    runs: u64,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Helpers park here between runs.
    work: Condvar,
    /// The caller parks here until its helpers finish.
    done: Condvar,
}

impl Shared {
    /// The state lock. No code panics while holding it (jobs run unlocked),
    /// and every update leaves the state valid, so a poisoned lock is
    /// recovered rather than unwrapped.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed set of helper threads, owned by one engine for its lifetime.
pub(crate) struct Workers {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Workers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workers")
            .field("helpers", &self.handles.len())
            .finish()
    }
}

impl Workers {
    /// Spawns `helpers` parked helper threads.
    ///
    /// # Panics
    /// Panics if the OS refuses a thread; the helpers spawned so far are
    /// stopped and joined first.
    pub(crate) fn spawn(helpers: usize) -> Self {
        let mut workers = Self {
            shared: Arc::default(),
            handles: Vec::with_capacity(helpers),
        };
        for i in 0..helpers {
            let shared = Arc::clone(&workers.shared);
            let handle = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || helper(&shared))
                .expect("spawn a serve worker thread");
            workers.handles.push(handle);
        }
        workers
    }

    /// Number of helper threads.
    pub(crate) fn helpers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `job` over `min(wanted, helpers + 1)` participants: participant
    /// 0 on the calling thread, the rest on woken helpers, and returns once
    /// all have finished. When another caller's run holds the helpers, or
    /// only one participant is wanted, it runs `job(0, 1)` inline instead.
    ///
    /// # Panics
    /// Re-raises the first panic of any participant, the caller's own first.
    pub(crate) fn run(&self, wanted: usize, job: Job) {
        let participants = wanted.min(self.helpers() + 1);
        if participants < 2 || !self.post(participants, &job) {
            job(0, 1);
            return;
        }
        let mine = catch_unwind(AssertUnwindSafe(|| job(0, participants)));
        let theirs = self.finish();
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            resume_unwind(payload);
        }
    }

    /// Hands `job` to `participants − 1` helpers, or returns `false` when
    /// another run holds them.
    fn post(&self, participants: usize, job: &Job) -> bool {
        let mut state = self.shared.lock();
        if state.job.is_some() {
            return false;
        }
        state.job = Some(Arc::clone(job));
        state.participants = participants;
        state.next = 1;
        state.pending = participants - 1;
        #[cfg(test)]
        {
            state.runs += 1;
        }
        drop(state);
        for _ in 1..participants {
            self.shared.work.notify_one();
        }
        true
    }

    /// Waits for the posted run's helpers, releases them to the next run and
    /// returns the first helper panic.
    fn finish(&self) -> Option<Payload> {
        let mut state = self.shared.lock();
        while state.pending > 0 {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        state.panic.take()
    }

    /// Runs handed to helpers so far; every other run stayed on its caller.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> u64 {
        self.shared.lock().runs
    }

    /// The helpers' shared state, which each helper holds until it exits.
    #[cfg(test)]
    pub(crate) fn liveness(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // No run is in flight: `run` returns only after its helpers finish,
        // and dropping needs the only reference to the engine.
        self.shared.lock().stop = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            // A helper catches every job panic, so a join error cannot occur;
            // a panic here would abort an unwinding caller.
            let _ = handle.join();
        }
    }
}

/// A helper's life: claim a participant of the posted run, run it outside
/// the lock, report, park; exit on stop.
fn helper(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        if state.stop {
            return;
        }
        if state.next >= state.participants {
            state = shared
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        let participant = state.next;
        state.next += 1;
        let participants = state.participants;
        let job = state.job.clone().expect("a posted run carries its job");
        drop(state);

        let outcome = catch_unwind(AssertUnwindSafe(|| job(participant, participants)));
        // Release the run's data before the caller can see it finished.
        drop(job);

        state = shared.lock();
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        state.pending -= 1;
        if state.pending == 0 {
            shared.done.notify_one();
        }
    }
}
