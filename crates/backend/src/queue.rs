//! Per-QPU job queues with a notion of simulated time.
//!
//! This reproduces the paper's evaluation methodology (§8.2): "We patch
//! Qiskit's FakeBackends with the ability to maintain their own queue of
//! scheduled jobs, job waiting and execution times, and the notion of time
//! flow, reflecting the real-world job flow."

use std::collections::VecDeque;

/// A job sitting in (or finished by) a QPU queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QueuedJob {
    /// Caller-assigned job identifier.
    pub job_id: u64,
    /// Estimated (or actual) execution duration in seconds.
    pub duration_s: f64,
    /// Simulated time at which the job was enqueued.
    pub enqueue_time_s: f64,
}

/// Record of a completed job execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedJob {
    /// Caller-assigned job identifier.
    pub job_id: u64,
    /// Simulated time at which the job was enqueued.
    pub enqueue_time_s: f64,
    /// Simulated time at which execution started.
    pub start_time_s: f64,
    /// Simulated time at which execution finished.
    pub finish_time_s: f64,
}

impl CompletedJob {
    /// Waiting time: start − enqueue.
    pub fn waiting_s(&self) -> f64 {
        self.start_time_s - self.enqueue_time_s
    }

    /// Execution time: finish − start.
    pub fn execution_s(&self) -> f64 {
        self.finish_time_s - self.start_time_s
    }

    /// Completion time: finish − enqueue.
    pub fn completion_s(&self) -> f64 {
        self.finish_time_s - self.enqueue_time_s
    }
}

/// FIFO job queue of one QPU with simulated time flow.
#[derive(Debug, Clone, Default)]
pub struct JobQueue {
    pending: VecDeque<QueuedJob>,
    /// Job currently executing, with its start time.
    running: Option<(QueuedJob, f64)>,
    completed: Vec<CompletedJob>,
    /// Cumulative busy (executing) time in seconds.
    busy_s: f64,
    /// Current simulated time of this queue.
    now_s: f64,
}

impl JobQueue {
    /// An empty queue at simulated time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending (not yet started) jobs.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// `true` if a job is currently executing.
    pub(crate) fn is_busy(&self) -> bool {
        self.running.is_some()
    }

    /// Current simulated time of the queue.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Completed job records.
    pub fn completed(&self) -> &[CompletedJob] {
        &self.completed
    }

    /// Cumulative execution (busy) seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Utilization in [0, 1]: busy seconds over elapsed simulated seconds.
    pub fn utilization(&self) -> f64 {
        if self.now_s <= 0.0 {
            0.0
        } else {
            (self.busy_s / self.now_s).clamp(0.0, 1.0)
        }
    }

    /// Estimated waiting time for a job enqueued now: remaining time of the
    /// running job plus the durations of all pending jobs. This is the `w_x`
    /// term of the scheduling objective (Eq. 1).
    pub fn estimated_waiting_s(&self) -> f64 {
        let mut wait = 0.0;
        if let Some((job, started)) = &self.running {
            wait += (started + job.duration_s - self.now_s).max(0.0);
        }
        wait += self.pending.iter().map(|j| j.duration_s).sum::<f64>();
        wait
    }

    /// Enqueue a job at the current simulated time.
    pub fn enqueue(&mut self, job_id: u64, duration_s: f64) {
        self.pending.push_back(QueuedJob { job_id, duration_s, enqueue_time_s: self.now_s });
    }

    /// Simulated time of the next job completion, or `None` if nothing is
    /// running or pending. Used by event-driven callers to advance time to
    /// the earliest completion instead of draining the whole queue.
    pub fn next_completion_s(&self) -> Option<f64> {
        if let Some((job, started)) = &self.running {
            return Some(started + job.duration_s);
        }
        self.pending.front().map(|job| self.now_s.max(job.enqueue_time_s) + job.duration_s)
    }

    /// Advance simulated time to `target_s`, starting and finishing jobs FIFO.
    ///
    /// # Panics
    /// Panics if `target_s` is earlier than the current simulated time.
    pub fn advance_to(&mut self, target_s: f64) {
        assert!(
            target_s + 1e-9 >= self.now_s,
            "cannot advance queue backwards ({} < {})",
            target_s,
            self.now_s
        );
        loop {
            // Finish the running job if it completes before target.
            if let Some((job, started)) = self.running {
                let finish = started + job.duration_s;
                if finish <= target_s {
                    self.completed.push(CompletedJob {
                        job_id: job.job_id,
                        enqueue_time_s: job.enqueue_time_s,
                        start_time_s: started,
                        finish_time_s: finish,
                    });
                    self.busy_s += job.duration_s;
                    self.now_s = finish;
                    self.running = None;
                } else {
                    // Still running at target.
                    self.now_s = target_s;
                    return;
                }
            }
            // Start the next pending job, if any.
            match self.pending.pop_front() {
                Some(job) => {
                    let start = self.now_s.max(job.enqueue_time_s);
                    self.running = Some((job, start));
                }
                None => {
                    self.now_s = target_s;
                    return;
                }
            }
        }
    }

    /// Drain and return completed-job records accumulated so far.
    pub fn take_completed(&mut self) -> Vec<CompletedJob> {
        std::mem::take(&mut self.completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_execution_order_and_times() {
        let mut q = JobQueue::new();
        q.enqueue(1, 10.0);
        q.enqueue(2, 5.0);
        q.advance_to(30.0);
        let done = q.completed();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].job_id, 1);
        assert_eq!(done[0].start_time_s, 0.0);
        assert_eq!(done[0].finish_time_s, 10.0);
        assert_eq!(done[1].job_id, 2);
        assert_eq!(done[1].start_time_s, 10.0);
        assert_eq!(done[1].finish_time_s, 15.0);
        assert_eq!(done[1].waiting_s(), 10.0);
        assert_eq!(done[1].completion_s(), 15.0);
    }

    #[test]
    fn estimated_waiting_accounts_for_running_and_pending() {
        let mut q = JobQueue::new();
        q.enqueue(1, 10.0);
        q.enqueue(2, 6.0);
        q.advance_to(4.0); // job 1 running with 6 s remaining
        assert!(q.is_busy());
        assert!((q.estimated_waiting_s() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut q = JobQueue::new();
        q.enqueue(1, 10.0);
        q.advance_to(20.0);
        assert!((q.utilization() - 0.5).abs() < 1e-9);
        assert_eq!(q.busy_s(), 10.0);
    }

    #[test]
    fn jobs_enqueued_mid_flight_wait_for_earlier_jobs() {
        let mut q = JobQueue::new();
        q.enqueue(1, 10.0);
        q.advance_to(5.0);
        q.enqueue(2, 3.0);
        q.advance_to(20.0);
        let done = q.completed();
        assert_eq!(done[1].job_id, 2);
        assert_eq!(done[1].start_time_s, 10.0);
        assert_eq!(done[1].enqueue_time_s, 5.0);
        assert_eq!(done[1].waiting_s(), 5.0);
    }

    #[test]
    fn empty_queue_has_zero_wait() {
        let q = JobQueue::new();
        assert_eq!(q.estimated_waiting_s(), 0.0);
        assert_eq!(q.pending_len(), 0);
        assert_eq!(q.utilization(), 0.0);
    }

    #[test]
    #[should_panic]
    fn advancing_backwards_panics() {
        let mut q = JobQueue::new();
        q.advance_to(10.0);
        q.advance_to(5.0);
    }

    #[test]
    fn next_completion_tracks_running_and_pending() {
        let mut q = JobQueue::new();
        assert_eq!(q.next_completion_s(), None);
        q.enqueue(1, 10.0);
        q.enqueue(2, 5.0);
        // Nothing started yet: the head of the queue completes first.
        assert_eq!(q.next_completion_s(), Some(10.0));
        q.advance_to(4.0); // job 1 running, finishes at 10
        assert_eq!(q.next_completion_s(), Some(10.0));
        q.advance_to(12.0); // job 2 running, finishes at 15
        assert_eq!(q.next_completion_s(), Some(15.0));
        q.advance_to(20.0);
        assert_eq!(q.next_completion_s(), None);
    }

    #[test]
    fn take_completed_drains_records() {
        let mut q = JobQueue::new();
        q.enqueue(1, 1.0);
        q.advance_to(2.0);
        assert_eq!(q.take_completed().len(), 1);
        assert!(q.completed().is_empty());
    }
}
