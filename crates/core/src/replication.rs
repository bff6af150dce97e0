//! Consensus-backed replication of the control-plane job state (§4): every
//! mutation of the [`JobManager`] pending pool and the [`SubmissionService`]
//! tenant queues flows through one journaled choke point — the
//! [`ReplicatedControlPlane`] — which decides a typed [`ControlPlaneEvent`]
//! without writing anything, appends it to a quorum-replicated log, and only
//! then applies it, through the one function a failover replays the log
//! with. A fresh control-plane replica therefore rebuilds the exact state
//! (`snapshot + log replay`), so a leader crash loses no pending jobs: every
//! pre-crash [`JobTicket`] still resolves through
//! [`ReplicatedControlPlane::poll`].
//!
//! The journal brings its own text codec ([`wire`]). Floats are encoded as
//! IEEE-754 bit patterns in hex ([`wire::push_f64`]), which makes snapshot +
//! replay reconstruction **byte-for-byte** identical to the uninterrupted
//! state — compare
//! [`ReplicatedControlPlane::state_digest`] before a crash and after
//! [`ReplicatedControlPlane::failover`] to prove it.

use crate::digest::{fnv128, Fnv128, FNV128_OFFSET};
use crate::jobmanager::{
    enqueue_all, CalibrationPolicy, CompletedExecution, Enqueue, JobId, JobManager, JobSpec,
    PendingJob, TenantId,
};
use crate::submission::{
    JobTicket, SloClass, SubmissionError, SubmissionService, TenantConfig, TicketStatus,
};
use qonductor_backend::{CompletedJob, Fleet, ResourceClass};
use qonductor_circuit::par;
use qonductor_consensus::{LogEntry, ReplicatedKvStore, ReplicatedLog, StoreElection, StoreError};
use qonductor_scheduler::{HybridScheduler, ScheduleTrigger};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::time::Instant;

/// Bit-exact text codecs shared by the journal and the state snapshots.
///
/// Encoders are *streaming*: `push_*` appends a field to a buffer the caller
/// sized once, so encoding a 10 MB state allocates once, not once per field.
pub(crate) mod wire {
    use crate::jobmanager::JobSpec;
    use crate::submission::SloClass;

    /// Append `value` in decimal (what `{}` prints, without the formatter).
    pub(crate) fn push_u64(out: &mut String, mut value: u64) {
        // Most encoded counters are a single digit: skip the buffer.
        if value < 10 {
            out.push(char::from(b'0' + value as u8));
            return;
        }
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    /// Append an `f64` as its IEEE-754 bit pattern in 16 hex digits
    /// (bit-exact, `-0.0`, `NaN` payloads and all).
    pub(crate) fn push_f64(out: &mut String, value: f64) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bits = value.to_bits();
        let mut digits = [0u8; 16];
        for (i, digit) in digits.iter_mut().enumerate() {
            *digit = HEX[(bits >> (60 - 4 * i)) as usize & 0xf];
        }
        out.push_str(std::str::from_utf8(&digits).expect("ASCII digits"));
    }

    /// Append an optional `f64` (`-` for `None`).
    pub(crate) fn push_opt_f64(out: &mut String, value: Option<f64>) {
        match value {
            Some(value) => push_f64(out, value),
            None => out.push('-'),
        }
    }

    /// Append `items` separated by `,` — or `-` if there are none — writing
    /// each with `push`.
    pub(crate) fn push_list<T>(
        out: &mut String,
        items: impl IntoIterator<Item = T>,
        mut push: impl FnMut(&mut String, T),
    ) {
        let mut items = items.into_iter();
        match items.next() {
            None => out.push('-'),
            Some(first) => {
                push(out, first);
                for item in items {
                    out.push(',');
                    push(out, item);
                }
            }
        }
    }

    /// Append an SLO class as `deadline_bits:priority:max_error_bits`.
    pub(crate) fn push_slo(out: &mut String, slo: &SloClass) {
        push_f64(out, slo.deadline_s);
        out.push(':');
        push_u64(out, u64::from(slo.priority));
        out.push(':');
        push_f64(out, slo.max_error);
    }

    /// An upper bound on the bytes [`push_spec`] appends for `spec`; callers
    /// size their buffers with it.
    pub(crate) fn spec_len_bound(spec: &JobSpec) -> usize {
        // Two `u32`s and a `u64` (40 digits at most), four `|`, then 16 hex
        // digits and a separator per float.
        64 + 17 * (spec.fidelity_per_qpu.len() + spec.exec_time_per_qpu.len())
    }

    /// Append a job spec as `qubits|shots|epoch|f_bits,..|t_bits,..` (no
    /// spaces, so a spec is a single field of a space-separated record).
    pub(crate) fn push_spec(out: &mut String, spec: &JobSpec) {
        push_u64(out, u64::from(spec.qubits));
        out.push('|');
        push_u64(out, u64::from(spec.shots));
        out.push('|');
        push_u64(out, spec.estimate_epoch);
        for values in [&spec.fidelity_per_qpu, &spec.exec_time_per_qpu] {
            out.push('|');
            for (i, &value) in values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_f64(out, value);
            }
        }
    }

    /// The value of each lowercase hex digit [`push_f64`] writes, and 0x10
    /// for every other byte.
    const HEX_NIBBLE: [u8; 256] = {
        let mut table = [0x10; 256];
        let mut i = 0;
        while i < 16 {
            table[b"0123456789abcdef"[i] as usize] = i as u8;
            i += 1;
        }
        table
    };

    /// A forward-only reader over encoded state and journal lines: every
    /// decoder reads its input once, front to back, field by field where it
    /// lies — no `split` iterator per field, no `Vec` of sub-fields. Each
    /// reader accepts exactly what the matching `push_*` writes and nothing
    /// else (no sign, no leading zero, no uppercase hex), so a decoder built
    /// from them that also checks what its fields' order implies returns a
    /// state only for bytes that state encodes to.
    pub(crate) struct Cursor<'a> {
        rest: &'a [u8],
    }

    impl<'a> Cursor<'a> {
        pub(crate) fn new(text: &'a str) -> Self {
            Cursor { rest: text.as_bytes() }
        }

        /// Bytes not read yet.
        pub(crate) fn remaining(&self) -> usize {
            self.rest.len()
        }

        /// `value`, if every byte was read.
        pub(crate) fn finish<T>(&self, value: T) -> Option<T> {
            self.rest.is_empty().then_some(value)
        }

        /// Consume `token` if the input continues with it.
        pub(crate) fn eat(&mut self, token: &str) -> bool {
            // Byte by byte, not `strip_prefix`: a token is a few bytes known
            // at compile time, too short to pay for a `memcmp` call.
            let token = token.as_bytes();
            let matches = self.rest.len() >= token.len()
                && self.rest.iter().zip(token).all(|(byte, expected)| byte == expected);
            if matches {
                self.rest = &self.rest[token.len()..];
            }
            matches
        }

        /// Consume `token` or fail; returns the cursor, so the next field
        /// reads on: `input.after(" ")?.num()?`.
        pub(crate) fn after(&mut self, token: &str) -> Option<&mut Self> {
            self.eat(token).then_some(self)
        }

        /// A [`push_u64`] decimal, narrowed to `T`: digits only, no leading
        /// zero, overflow checked.
        pub(crate) fn num<T: TryFrom<u64>>(&mut self) -> Option<T> {
            let (mut value, mut digits) = (0u64, 0);
            for &byte in self.rest {
                let digit = byte.wrapping_sub(b'0');
                if digit > 9 {
                    break;
                }
                value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
                digits += 1;
            }
            if digits == 0 || (digits > 1 && self.rest[0] == b'0') {
                return None;
            }
            self.rest = &self.rest[digits..];
            T::try_from(value).ok()
        }

        /// [`Self::num`] for a strictly ascending sequence: fails unless the
        /// value is above `last`, which it then becomes.
        pub(crate) fn ascending<T: TryFrom<u64> + PartialOrd + Copy>(
            &mut self,
            last: &mut Option<T>,
        ) -> Option<T> {
            let value = self.num()?;
            if last.is_some_and(|last| last >= value) {
                return None;
            }
            *last = Some(value);
            Some(value)
        }

        /// A [`push_f64`] float: exactly 16 lowercase hex digits.
        pub(crate) fn f64(&mut self) -> Option<f64> {
            let (digits, rest) = self.rest.split_at_checked(16)?;
            // Branch-free: a digit-class branch mispredicts on every other
            // digit of a float's bits, and failover reads ~350 k floats.
            let (mut bits, mut invalid) = (0u64, 0u8);
            for &digit in digits {
                let nibble = HEX_NIBBLE[usize::from(digit)];
                invalid |= nibble;
                bits = bits << 4 | u64::from(nibble & 0xf);
            }
            if invalid > 0xf {
                return None;
            }
            self.rest = rest;
            Some(f64::from_bits(bits))
        }

        /// A [`push_opt_f64`] float.
        pub(crate) fn opt_f64(&mut self) -> Option<Option<f64>> {
            if self.eat("-") {
                Some(None)
            } else {
                self.f64().map(Some)
            }
        }

        /// A [`push_list`] list, each item read by `item`.
        pub(crate) fn list(&mut self, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
            if self.eat("-") {
                return Some(());
            }
            loop {
                item(self)?;
                if !self.eat(",") {
                    return Some(());
                }
            }
        }

        /// A [`push_slo`] class.
        pub(crate) fn slo(&mut self) -> Option<SloClass> {
            Some(SloClass {
                deadline_s: self.f64()?,
                priority: self.after(":")?.num()?,
                max_error: self.after(":")?.f64()?,
            })
        }

        /// A [`push_spec`] job spec.
        pub(crate) fn spec(&mut self) -> Option<JobSpec> {
            Some(JobSpec {
                qubits: self.num()?,
                shots: self.after("|")?.num()?,
                estimate_epoch: self.after("|")?.num()?,
                fidelity_per_qpu: self.after("|")?.floats()?,
                exec_time_per_qpu: self.after("|")?.floats()?,
            })
        }

        /// The `,`-separated floats of a spec column, none at all when no
        /// hex digit follows.
        fn floats(&mut self) -> Option<Vec<f64>> {
            let run = self
                .rest
                .iter()
                .position(|&b| b != b',' && HEX_NIBBLE[usize::from(b)] > 0xf)
                .unwrap_or(self.rest.len());
            let mut values = Vec::with_capacity(run.div_ceil(17));
            if run > 0 {
                loop {
                    values.push(self.f64()?);
                    if !self.eat(",") {
                        break;
                    }
                }
            }
            Some(values)
        }
    }

    /// The `format!` encoders the streaming ones replaced, kept as the byte
    /// oracle: every `push_*` must produce exactly these bytes.
    ///
    /// The `split`/`parse` decoders the [`Cursor`] replaced are kept here
    /// too, as the decode oracle.
    #[cfg(test)]
    pub(crate) mod oracle {
        use crate::jobmanager::JobSpec;

        pub(crate) fn dec_f64(field: &str) -> Option<f64> {
            u64::from_str_radix(field, 16).ok().map(f64::from_bits)
        }

        pub(crate) fn dec_opt_f64(field: &str) -> Option<Option<f64>> {
            if field == "-" {
                Some(None)
            } else {
                dec_f64(field).map(Some)
            }
        }

        pub(crate) fn dec_list<T>(
            field: &str,
            item: impl FnMut(&str) -> Option<T>,
        ) -> Option<Vec<T>> {
            if field == "-" {
                Some(Vec::new())
            } else {
                field.split(',').map(item).collect()
            }
        }

        pub(crate) fn dec_spec(field: &str) -> Option<JobSpec> {
            let mut parts = field.split('|');
            let qubits = parts.next()?.parse().ok()?;
            let shots = parts.next()?.parse().ok()?;
            let estimate_epoch = parts.next()?.parse().ok()?;
            let split = |segment: &str| -> Option<Vec<f64>> {
                if segment.is_empty() {
                    return Some(Vec::new());
                }
                segment.split(',').map(dec_f64).collect()
            };
            let fidelity_per_qpu = split(parts.next()?)?;
            let exec_time_per_qpu = split(parts.next()?)?;
            if parts.next().is_some() {
                return None;
            }
            Some(JobSpec { qubits, shots, fidelity_per_qpu, exec_time_per_qpu, estimate_epoch })
        }

        pub(crate) fn enc_f64(value: f64) -> String {
            format!("{:016x}", value.to_bits())
        }

        pub(crate) fn enc_opt_f64(value: Option<f64>) -> String {
            value.map_or_else(|| "-".to_string(), enc_f64)
        }

        pub(crate) fn enc_spec(spec: &JobSpec) -> String {
            let join =
                |values: &[f64]| values.iter().map(|&v| enc_f64(v)).collect::<Vec<_>>().join(",");
            format!(
                "{}|{}|{}|{}|{}",
                spec.qubits,
                spec.shots,
                spec.estimate_epoch,
                join(&spec.fidelity_per_qpu),
                join(&spec.exec_time_per_qpu)
            )
        }
    }
}

/// One journaled control-plane state transition. Replaying the sequence of
/// events (from a snapshot baseline) deterministically reproduces the
/// [`JobManager`] + [`SubmissionService`] pair, because every non-journaled
/// computation they perform (deficit-round-robin admission, ticket/job id
/// assignment) is a pure function of the state the journal already covers.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlPlaneEvent {
    /// A tenant registered with the submission service.
    TenantRegistered {
        /// The tenant's admission configuration.
        config: TenantConfig,
        /// The tenant's SLO class, if registered with one — journaled so a
        /// failover replays the registration (and every later escalation
        /// decision derived from it) byte-for-byte.
        slo: Option<SloClass>,
    },
    /// A queued ticket jumped the DRR scan through the SLO bypass lane: its
    /// deadline would be missed by waiting one more trigger interval. The
    /// admission itself is a deterministic function of the ticket + instant,
    /// so the pair pins the escalation for byte-exact failover replay.
    SloEscalated {
        /// Simulated time of the escalation.
        now_s: f64,
        /// The escalated ticket.
        ticket: JobTicket,
    },
    /// The autoscaler grew elastic capacity: a QPU at `qpu_index` of
    /// `class` joined the fleet. Journaled *before* the fleet mutates
    /// (write-ahead), so replay reconstructs the exact elastic set.
    QpuProvisioned {
        /// Simulated time of the scaling decision.
        now_s: f64,
        /// Fleet index the elastic QPU occupies.
        qpu_index: usize,
        /// Resource class of the provisioned capacity.
        class: ResourceClass,
    },
    /// The autoscaler shrank elastic capacity: the QPU at `qpu_index` left
    /// the fleet.
    QpuRetired {
        /// Simulated time of the scaling decision.
        now_s: f64,
        /// Fleet index the retired QPU occupied.
        qpu_index: usize,
    },
    /// A job entered a tenant's FIFO queue.
    JobSubmitted {
        /// The submitting tenant.
        tenant: TenantId,
        /// The job payload.
        spec: JobSpec,
        /// Simulated submission time.
        now_s: f64,
    },
    /// One weighted-fair admission pass ran (its outcome is a deterministic
    /// function of the state, so only the instant is journaled).
    AdmissionPass {
        /// Simulated time of the pass.
        now_s: f64,
    },
    /// The trigger fired and a batch was dispatched: `placed` jobs left the
    /// pool onto QPU queues (minus the `deferred` set), `rejected` jobs were
    /// bounced by the scheduler, and `deferred` jobs were pulled out at a
    /// recalibration boundary — they stay pending, parked until the boundary
    /// (the typed split decision, replayed byte-for-byte on failover).
    BatchDispatched {
        /// Simulated dispatch time.
        t_s: f64,
        /// `(job id, QPU index)` placements, in scheduler outcome order.
        placed: Vec<(JobId, usize)>,
        /// Scheduler-rejected job ids.
        rejected: Vec<JobId>,
        /// `(job id, boundary)` calibration-crossover deferrals (§7).
        deferred: Vec<(JobId, f64)>,
    },
    /// A pending job's estimate table was recomputed against a fresh
    /// calibration snapshot (the new spec carries its epoch stamp).
    JobReestimated {
        /// The engine-assigned job id.
        job_id: JobId,
        /// The recomputed estimates.
        spec: JobSpec,
    },
    /// A job was placed directly onto a QPU queue, bypassing the trigger and
    /// the optimizer (the FCFS baseline path).
    DirectDispatched {
        /// The engine-assigned job id.
        job_id: JobId,
        /// Index of the QPU it was enqueued on.
        qpu_index: usize,
    },
    /// A dispatched job finished executing on a QPU.
    JobCompleted {
        /// The engine-assigned job id.
        job_id: JobId,
        /// Index of the QPU the job ran on.
        qpu_index: usize,
        /// Simulated enqueue time on the QPU queue.
        enqueue_s: f64,
        /// Simulated execution start time.
        start_s: f64,
        /// Simulated finish time.
        finish_s: f64,
    },
    /// This control-plane shard was granted a lease on one fleet QPU by the
    /// shared fleet allocator. Journaled on the *granting* shard (the shard
    /// that will submit to the QPU) **before** the lease is used, so a crash
    /// between grant and first use replays the grant — capacity is neither
    /// leaked (the rebuilt shard still holds the lease) nor double-granted
    /// (the allocator is rebuilt from the per-shard lease sets and rejects
    /// overlaps).
    LeaseGranted {
        /// Index of the leased QPU in the shared fleet.
        qpu_index: usize,
    },
    /// This shard returned a QPU lease to the shared fleet allocator.
    LeaseReleased {
        /// Index of the released QPU in the shared fleet.
        qpu_index: usize,
    },
}

impl LogEntry for ControlPlaneEvent {
    fn encode(&self) -> String {
        use wire::{push_f64, push_list, push_slo, push_spec, push_u64};
        // Sized once: only specs and dispatch lists outgrow a short line.
        let mut out = String::with_capacity(match self {
            ControlPlaneEvent::JobSubmitted { spec, .. }
            | ControlPlaneEvent::JobReestimated { spec, .. } => 64 + wire::spec_len_bound(spec),
            ControlPlaneEvent::BatchDispatched { placed, rejected, deferred, .. } => {
                32 + 42 * placed.len() + 21 * rejected.len() + 38 * deferred.len()
            }
            _ => 80,
        });
        match self {
            ControlPlaneEvent::TenantRegistered { config, slo } => {
                out.push_str("treg ");
                push_u64(&mut out, u64::from(config.weight));
                out.push(' ');
                push_u64(&mut out, config.max_in_flight as u64);
                out.push(' ');
                push_u64(&mut out, u64::from(config.max_retries));
                // SLO-free registrations keep the historical three-field
                // format, so pre-SLO journals still decode.
                if let Some(slo) = slo {
                    out.push(' ');
                    push_slo(&mut out, slo);
                }
            }
            ControlPlaneEvent::SloEscalated { now_s, ticket } => {
                out.push_str("sesc ");
                push_f64(&mut out, *now_s);
                out.push(' ');
                push_u64(&mut out, u64::from(ticket.tenant));
                out.push(':');
                push_u64(&mut out, ticket.ticket);
            }
            ControlPlaneEvent::QpuProvisioned { now_s, qpu_index, class } => {
                out.push_str("qprv ");
                push_f64(&mut out, *now_s);
                out.push(' ');
                push_u64(&mut out, *qpu_index as u64);
                out.push_str(match class {
                    ResourceClass::Superconducting => " sc",
                    ResourceClass::IonTrap => " ion",
                    ResourceClass::Simulator => " sim",
                });
            }
            ControlPlaneEvent::QpuRetired { now_s, qpu_index } => {
                out.push_str("qret ");
                push_f64(&mut out, *now_s);
                out.push(' ');
                push_u64(&mut out, *qpu_index as u64);
            }
            ControlPlaneEvent::JobSubmitted { tenant, spec, now_s } => {
                out.push_str("subm ");
                push_u64(&mut out, u64::from(*tenant));
                out.push(' ');
                push_f64(&mut out, *now_s);
                out.push(' ');
                push_spec(&mut out, spec);
            }
            ControlPlaneEvent::AdmissionPass { now_s } => {
                out.push_str("admt ");
                push_f64(&mut out, *now_s);
            }
            ControlPlaneEvent::BatchDispatched { t_s, placed, rejected, deferred } => {
                out.push_str("disp ");
                push_f64(&mut out, *t_s);
                out.push(' ');
                push_list(&mut out, placed, |out, &(job, qpu)| {
                    push_u64(out, job);
                    out.push(':');
                    push_u64(out, qpu as u64);
                });
                out.push(' ');
                push_list(&mut out, rejected, |out, &job| push_u64(out, job));
                out.push(' ');
                push_list(&mut out, deferred, |out, &(job, boundary)| {
                    push_u64(out, job);
                    out.push(':');
                    push_f64(out, boundary);
                });
                // The trailing token once told live from speculative
                // (plan-ahead) dispatches; only the live `l` remains, kept so
                // journal bytes are unchanged until the next format version.
                out.push_str(" l");
            }
            ControlPlaneEvent::JobReestimated { job_id, spec } => {
                out.push_str("rest ");
                push_u64(&mut out, *job_id);
                out.push(' ');
                push_spec(&mut out, spec);
            }
            ControlPlaneEvent::DirectDispatched { job_id, qpu_index } => {
                out.push_str("dird ");
                push_u64(&mut out, *job_id);
                out.push(' ');
                push_u64(&mut out, *qpu_index as u64);
            }
            ControlPlaneEvent::JobCompleted { job_id, qpu_index, enqueue_s, start_s, finish_s } => {
                out.push_str("done ");
                push_u64(&mut out, *job_id);
                out.push(' ');
                push_u64(&mut out, *qpu_index as u64);
                for instant in [enqueue_s, start_s, finish_s] {
                    out.push(' ');
                    push_f64(&mut out, *instant);
                }
            }
            ControlPlaneEvent::LeaseGranted { qpu_index } => {
                out.push_str("lgr ");
                push_u64(&mut out, *qpu_index as u64);
            }
            ControlPlaneEvent::LeaseReleased { qpu_index } => {
                out.push_str("lrl ");
                push_u64(&mut out, *qpu_index as u64);
            }
        }
        out
    }

    fn decode(line: &str) -> Option<Self> {
        let mut input = wire::Cursor::new(line);
        let input = &mut input;
        let event = if input.eat("treg ") {
            let config = TenantConfig {
                weight: input.num()?,
                max_in_flight: input.after(" ")?.num()?,
                max_retries: input.after(" ")?.num()?,
            };
            let slo = if input.eat(" ") { Some(input.slo()?) } else { None };
            ControlPlaneEvent::TenantRegistered { config, slo }
        } else if input.eat("sesc ") {
            ControlPlaneEvent::SloEscalated {
                now_s: input.f64()?,
                ticket: JobTicket {
                    tenant: input.after(" ")?.num()?,
                    ticket: input.after(":")?.num()?,
                },
            }
        } else if input.eat("qprv ") {
            ControlPlaneEvent::QpuProvisioned {
                now_s: input.f64()?,
                qpu_index: input.after(" ")?.num()?,
                class: if input.eat(" sc") {
                    ResourceClass::Superconducting
                } else if input.eat(" ion") {
                    ResourceClass::IonTrap
                } else if input.eat(" sim") {
                    ResourceClass::Simulator
                } else {
                    return None;
                },
            }
        } else if input.eat("qret ") {
            ControlPlaneEvent::QpuRetired {
                now_s: input.f64()?,
                qpu_index: input.after(" ")?.num()?,
            }
        } else if input.eat("subm ") {
            ControlPlaneEvent::JobSubmitted {
                tenant: input.num()?,
                now_s: input.after(" ")?.f64()?,
                spec: input.after(" ")?.spec()?,
            }
        } else if input.eat("admt ") {
            ControlPlaneEvent::AdmissionPass { now_s: input.f64()? }
        } else if input.eat("disp ") {
            let t_s = input.f64()?;
            let (mut placed, mut rejected, mut deferred) = (Vec::new(), Vec::new(), Vec::new());
            input.after(" ")?.list(|input| {
                placed.push((input.num()?, input.after(":")?.num()?));
                Some(())
            })?;
            input.after(" ")?.list(|input| {
                rejected.push(input.num()?);
                Some(())
            })?;
            input.after(" ")?.list(|input| {
                deferred.push((input.num()?, input.after(":")?.f64()?));
                Some(())
            })?;
            // See the encoder: `l` is the only dispatch token left.
            input.after(" l")?;
            ControlPlaneEvent::BatchDispatched { t_s, placed, rejected, deferred }
        } else if input.eat("rest ") {
            ControlPlaneEvent::JobReestimated {
                job_id: input.num()?,
                spec: input.after(" ")?.spec()?,
            }
        } else if input.eat("dird ") {
            ControlPlaneEvent::DirectDispatched {
                job_id: input.num()?,
                qpu_index: input.after(" ")?.num()?,
            }
        } else if input.eat("done ") {
            ControlPlaneEvent::JobCompleted {
                job_id: input.num()?,
                qpu_index: input.after(" ")?.num()?,
                enqueue_s: input.after(" ")?.f64()?,
                start_s: input.after(" ")?.f64()?,
                finish_s: input.after(" ")?.f64()?,
            }
        } else if input.eat("lgr ") {
            ControlPlaneEvent::LeaseGranted { qpu_index: input.num()? }
        } else if input.eat("lrl ") {
            ControlPlaneEvent::LeaseReleased { qpu_index: input.num()? }
        } else {
            return None;
        };
        input.finish(event)
    }
}

#[cfg(test)]
impl ControlPlaneEvent {
    /// The `split`/`parse` decoder [`LogEntry::decode`] replaced — the
    /// decode oracle.
    fn decode_oracle(line: &str) -> Option<Self> {
        use wire::oracle::{dec_f64, dec_list, dec_spec};
        let mut fields = line.split(' ');
        let event = match fields.next()? {
            "treg" => {
                let config = TenantConfig {
                    weight: fields.next()?.parse().ok()?,
                    max_in_flight: fields.next()?.parse().ok()?,
                    max_retries: fields.next()?.parse().ok()?,
                };
                let slo = match fields.next() {
                    None => None,
                    Some(field) => match field.split(':').collect::<Vec<_>>()[..] {
                        [deadline, priority, max_error] => Some(SloClass {
                            deadline_s: dec_f64(deadline)?,
                            priority: priority.parse().ok()?,
                            max_error: dec_f64(max_error)?,
                        }),
                        _ => return None,
                    },
                };
                ControlPlaneEvent::TenantRegistered { config, slo }
            }
            "sesc" => {
                let now_s = dec_f64(fields.next()?)?;
                let (tenant, ticket) = fields.next()?.split_once(':')?;
                ControlPlaneEvent::SloEscalated {
                    now_s,
                    ticket: JobTicket {
                        tenant: tenant.parse().ok()?,
                        ticket: ticket.parse().ok()?,
                    },
                }
            }
            "qprv" => ControlPlaneEvent::QpuProvisioned {
                now_s: dec_f64(fields.next()?)?,
                qpu_index: fields.next()?.parse().ok()?,
                class: match fields.next()? {
                    "sc" => ResourceClass::Superconducting,
                    "ion" => ResourceClass::IonTrap,
                    "sim" => ResourceClass::Simulator,
                    _ => return None,
                },
            },
            "qret" => ControlPlaneEvent::QpuRetired {
                now_s: dec_f64(fields.next()?)?,
                qpu_index: fields.next()?.parse().ok()?,
            },
            "subm" => ControlPlaneEvent::JobSubmitted {
                tenant: fields.next()?.parse().ok()?,
                now_s: dec_f64(fields.next()?)?,
                spec: dec_spec(fields.next()?)?,
            },
            "admt" => ControlPlaneEvent::AdmissionPass { now_s: dec_f64(fields.next()?)? },
            "disp" => {
                let t_s = dec_f64(fields.next()?)?;
                let placed = dec_list(fields.next()?, |pair| {
                    let (job, qpu) = pair.split_once(':')?;
                    Some((job.parse().ok()?, qpu.parse().ok()?))
                })?;
                let rejected = dec_list(fields.next()?, |id| id.parse().ok())?;
                let deferred = dec_list(fields.next()?, |pair| {
                    let (job, boundary) = pair.split_once(':')?;
                    Some((job.parse().ok()?, dec_f64(boundary)?))
                })?;
                // See the encoder: `l` is the only dispatch token left.
                if fields.next()? != "l" {
                    return None;
                }
                ControlPlaneEvent::BatchDispatched { t_s, placed, rejected, deferred }
            }
            "rest" => ControlPlaneEvent::JobReestimated {
                job_id: fields.next()?.parse().ok()?,
                spec: dec_spec(fields.next()?)?,
            },
            "dird" => ControlPlaneEvent::DirectDispatched {
                job_id: fields.next()?.parse().ok()?,
                qpu_index: fields.next()?.parse().ok()?,
            },
            "done" => ControlPlaneEvent::JobCompleted {
                job_id: fields.next()?.parse().ok()?,
                qpu_index: fields.next()?.parse().ok()?,
                enqueue_s: dec_f64(fields.next()?)?,
                start_s: dec_f64(fields.next()?)?,
                finish_s: dec_f64(fields.next()?)?,
            },
            "lgr" => ControlPlaneEvent::LeaseGranted { qpu_index: fields.next()?.parse().ok()? },
            "lrl" => ControlPlaneEvent::LeaseReleased { qpu_index: fields.next()?.parse().ok()? },
            _ => return None,
        };
        if fields.next().is_some() {
            return None;
        }
        Some(event)
    }

    /// The `format!` encoder [`LogEntry::encode`] replaced — the byte oracle
    /// the streaming encoder is tested against.
    fn encode_oracle(&self) -> String {
        use wire::oracle::{enc_f64, enc_spec};
        match self {
            ControlPlaneEvent::TenantRegistered { config, slo } => {
                let base = format!(
                    "treg {} {} {}",
                    config.weight, config.max_in_flight, config.max_retries
                );
                match slo {
                    // SLO-free registrations keep the historical three-field
                    // format, so pre-SLO journals still decode.
                    None => base,
                    Some(slo) => format!(
                        "{base} {}:{}:{}",
                        enc_f64(slo.deadline_s),
                        slo.priority,
                        enc_f64(slo.max_error)
                    ),
                }
            }
            ControlPlaneEvent::SloEscalated { now_s, ticket } => {
                format!("sesc {} {}:{}", enc_f64(*now_s), ticket.tenant, ticket.ticket)
            }
            ControlPlaneEvent::QpuProvisioned { now_s, qpu_index, class } => {
                let class = match class {
                    ResourceClass::Superconducting => "sc",
                    ResourceClass::IonTrap => "ion",
                    ResourceClass::Simulator => "sim",
                };
                format!("qprv {} {qpu_index} {class}", enc_f64(*now_s))
            }
            ControlPlaneEvent::QpuRetired { now_s, qpu_index } => {
                format!("qret {} {qpu_index}", enc_f64(*now_s))
            }
            ControlPlaneEvent::JobSubmitted { tenant, spec, now_s } => {
                format!("subm {tenant} {} {}", enc_f64(*now_s), enc_spec(spec))
            }
            ControlPlaneEvent::AdmissionPass { now_s } => format!("admt {}", enc_f64(*now_s)),
            ControlPlaneEvent::BatchDispatched { t_s, placed, rejected, deferred } => {
                let placed = if placed.is_empty() {
                    "-".to_string()
                } else {
                    placed
                        .iter()
                        .map(|(job, qpu)| format!("{job}:{qpu}"))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let rejected = if rejected.is_empty() {
                    "-".to_string()
                } else {
                    rejected.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
                };
                let deferred = if deferred.is_empty() {
                    "-".to_string()
                } else {
                    deferred
                        .iter()
                        .map(|(job, boundary)| format!("{job}:{}", enc_f64(*boundary)))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!("disp {} {placed} {rejected} {deferred} l", enc_f64(*t_s))
            }
            ControlPlaneEvent::JobReestimated { job_id, spec } => {
                format!("rest {job_id} {}", enc_spec(spec))
            }
            ControlPlaneEvent::DirectDispatched { job_id, qpu_index } => {
                format!("dird {job_id} {qpu_index}")
            }
            ControlPlaneEvent::JobCompleted { job_id, qpu_index, enqueue_s, start_s, finish_s } => {
                format!(
                    "done {job_id} {qpu_index} {} {} {}",
                    enc_f64(*enqueue_s),
                    enc_f64(*start_s),
                    enc_f64(*finish_s)
                )
            }
            ControlPlaneEvent::LeaseGranted { qpu_index } => format!("lgr {qpu_index}"),
            ControlPlaneEvent::LeaseReleased { qpu_index } => format!("lrl {qpu_index}"),
        }
    }
}

/// Errors surfaced by the replicated control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationError {
    /// The replicated store rejected the journal write (e.g. no quorum).
    Store(StoreError),
    /// The submission-side validation failed (e.g. unknown tenant).
    Submission(SubmissionError),
}

impl From<StoreError> for ReplicationError {
    fn from(e: StoreError) -> Self {
        ReplicationError::Store(e)
    }
}

impl From<SubmissionError> for ReplicationError {
    fn from(e: SubmissionError) -> Self {
        ReplicationError::Submission(e)
    }
}

/// Errors surfaced by [`ReplicatedControlPlane::failover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverError {
    /// No leader could be elected (a majority of control replicas is down).
    NoLeader,
    /// The store holds no snapshot to rebuild from.
    MissingSnapshot,
    /// The snapshot or a journal entry failed to decode.
    CorruptState,
}

/// The result of one journaled, trigger-gated batch dispatch.
#[derive(Debug, Clone)]
pub struct DispatchOutcome {
    /// The engine's batch record (placements, Pareto front, timings).
    pub record: crate::jobmanager::BatchRecord,
    /// Tickets whose retry budget is now exhausted (terminally rejected).
    pub terminal_rejections: Vec<JobTicket>,
}

/// The journaled control-plane state: the batch engine, the submission
/// service, and the lease and elastic sets. [`ControlState::apply`] is the
/// only code that changes it — on the live path and on replay alike — so a
/// rebuilt state can differ from the live one only if a *decision* differed,
/// and deciding writes nothing.
#[derive(Debug, Default)]
struct ControlState {
    jobmanager: JobManager,
    submissions: SubmissionService,
    /// Fleet QPU indices this shard currently leases.
    leases: BTreeSet<usize>,
    /// Fleet QPU indices holding autoscaler-provisioned elastic capacity.
    elastic: BTreeSet<usize>,
}

/// What applying one event yields for the live caller; replay drops it.
#[derive(Debug, Default)]
struct Applied {
    /// The id a `TenantRegistered` event assigned.
    tenant: Option<TenantId>,
    /// The ticket a `JobSubmitted` event issued.
    ticket: Option<JobTicket>,
    /// What an escalation or an admission pass admitted, in admission order.
    admitted: Vec<(JobTicket, JobId)>,
    /// Tickets a batch's rejections made terminal.
    terminal_rejections: Vec<JobTicket>,
    /// The ticket a `JobCompleted` event resolved, with its completion.
    completion: Option<(JobTicket, CompletedExecution)>,
    /// Fleet enqueues, in pending-pool order.
    enqueues: Vec<Enqueue>,
}

impl ControlState {
    fn new(trigger: ScheduleTrigger, policy: CalibrationPolicy) -> Self {
        ControlState {
            jobmanager: JobManager::new(trigger).with_calibration_policy(policy),
            ..ControlState::default()
        }
    }

    /// Decide an admission cycle at `now_s`: one `SloEscalated` event per
    /// due ticket, then an `AdmissionPass` if tickets stay queued after them
    /// — or nothing when every tenant queue is empty (even an empty pass
    /// advances the round-robin cursor, so the skip covers the journal and
    /// the state alike, and idle periods do not grow the replay backlog).
    /// Every escalated ticket is pre-validated (queued, SLO-classed, within
    /// its tenant's in-flight budget, counted cumulatively per tenant), so
    /// each drains exactly one queued ticket and the pass is decidable
    /// before anything is applied.
    fn admission_events(&self, now_s: f64) -> Vec<ControlPlaneEvent> {
        let Some(escalations) = self.escalations_at(now_s) else {
            return Vec::new();
        };
        let run_pass = self.submissions.total_queued() > escalations.len();
        let mut events: Vec<ControlPlaneEvent> = escalations
            .into_iter()
            .map(|ticket| ControlPlaneEvent::SloEscalated { now_s, ticket })
            .collect();
        if run_pass {
            events.push(ControlPlaneEvent::AdmissionPass { now_s });
        }
        events
    }

    /// The SLO escalations an admission cycle at `now_s` applies, or `None`
    /// when every tenant queue is empty and the cycle is skipped.
    fn escalations_at(&self, now_s: f64) -> Option<Vec<JobTicket>> {
        if self.submissions.tenant_count() == 0 || self.submissions.total_queued() == 0 {
            return None;
        }
        let trigger = *self.jobmanager.trigger();
        let horizon_s = trigger.interval_s + trigger.slo_margin_s;
        let budget = trigger.queue_limit.saturating_sub(self.jobmanager.pending_len());
        Some(self.submissions.pending_escalations(now_s, horizon_s, budget))
    }

    /// Decide a direct dispatch: the job is pending, `qpu_index` is a QPU of
    /// the fleet, and the job's estimate table has a finite execution time
    /// for it.
    fn direct_dispatch(
        &self,
        job_id: JobId,
        qpu_index: usize,
        fleet: &Fleet,
    ) -> Option<ControlPlaneEvent> {
        let job = self.jobmanager.pending().iter().find(|job| job.job_id == job_id)?;
        let runnable = qpu_index < fleet.members().len()
            && job.spec.exec_time_per_qpu.get(qpu_index).copied().is_some_and(f64::is_finite);
        runnable.then_some(ControlPlaneEvent::DirectDispatched { job_id, qpu_index })
    }

    /// One `JobCompleted` event per drained completion whose ticket this
    /// control plane tracks.
    fn completion_events(&self, completions: &[CompletedExecution]) -> Vec<ControlPlaneEvent> {
        completions
            .iter()
            .filter(|completion| self.submissions.tracks_job(completion.job_id))
            .map(|completion| ControlPlaneEvent::JobCompleted {
                job_id: completion.job_id,
                qpu_index: completion.qpu_index,
                enqueue_s: completion.record.enqueue_time_s,
                start_s: completion.record.start_time_s,
                finish_s: completion.record.finish_time_s,
            })
            .collect()
    }

    /// Apply one journaled event — the only state change there is. The live
    /// plane calls it right after the event commits; failover calls it for
    /// every event replayed on top of the snapshot, and ignores what it
    /// returns. An event whose precondition no longer holds (a job that is
    /// no longer pending, an escalated ticket that is no longer queued)
    /// changes nothing.
    fn apply(&mut self, event: &ControlPlaneEvent) -> Applied {
        let mut applied = Applied::default();
        match event {
            ControlPlaneEvent::TenantRegistered { config, slo } => {
                applied.tenant = Some(match slo {
                    Some(slo) => self.submissions.register_tenant_with_slo(*config, *slo),
                    None => self.submissions.register_tenant_with(*config),
                });
            }
            ControlPlaneEvent::SloEscalated { now_s, ticket } => {
                let admitted =
                    self.submissions.apply_escalation(*ticket, *now_s, &mut self.jobmanager);
                applied.admitted.extend(admitted.map(|job_id| (*ticket, job_id)));
            }
            ControlPlaneEvent::QpuProvisioned { qpu_index, .. } => {
                self.elastic.insert(*qpu_index);
            }
            ControlPlaneEvent::QpuRetired { qpu_index, .. } => {
                self.elastic.remove(qpu_index);
            }
            ControlPlaneEvent::JobSubmitted { tenant, spec, now_s } => {
                applied.ticket = self.submissions.submit(*tenant, spec.clone(), *now_s).ok();
            }
            ControlPlaneEvent::AdmissionPass { now_s } => {
                applied.admitted = self.submissions.admit(*now_s, &mut self.jobmanager);
            }
            ControlPlaneEvent::BatchDispatched { t_s, placed, rejected, deferred } => {
                applied.enqueues = self.jobmanager.apply_batch(*t_s, placed, rejected, deferred);
                applied.terminal_rejections = self.submissions.note_rejections(*t_s, rejected);
            }
            ControlPlaneEvent::JobReestimated { job_id, spec } => {
                self.jobmanager.reestimate(*job_id, spec.clone());
            }
            ControlPlaneEvent::DirectDispatched { job_id, qpu_index } => {
                applied.enqueues.extend(self.jobmanager.apply_direct(*job_id, *qpu_index));
            }
            ControlPlaneEvent::JobCompleted { job_id, qpu_index, enqueue_s, start_s, finish_s } => {
                applied.completion = self.submissions.note_completion(CompletedExecution {
                    job_id: *job_id,
                    qpu_index: *qpu_index,
                    record: CompletedJob {
                        job_id: *job_id,
                        enqueue_time_s: *enqueue_s,
                        start_time_s: *start_s,
                        finish_time_s: *finish_s,
                    },
                });
            }
            ControlPlaneEvent::LeaseGranted { qpu_index } => {
                self.leases.insert(*qpu_index);
            }
            ControlPlaneEvent::LeaseReleased { qpu_index } => {
                self.leases.remove(qpu_index);
            }
        }
        applied
    }

    /// The combined snapshot payload: engine state, blank line, submission
    /// state, then the lease and elastic sections — in one buffer sized once.
    fn encode(&self) -> String {
        let mut state = String::with_capacity(
            self.jobmanager.encoded_len_hint() + self.submissions.encoded_len_hint() + 64,
        );
        self.jobmanager.encode_state_into(&mut state);
        state.push('\n');
        self.submissions.encode_state_into(&mut state);
        // Lease-free / elastic-free planes (every pre-sharding, pre-autoscale
        // deployment) keep their historical digest format: the optional
        // sections appear only when non-empty.
        for (section, held) in [("\nlease ", &self.leases), ("\nelastic ", &self.elastic)] {
            if !held.is_empty() {
                state.push_str(section);
                wire::push_list(&mut state, held, |out, &qpu| wire::push_u64(out, qpu as u64));
            }
        }
        state
    }

    /// Decode [`Self::encode`] output — and only that: `None` unless the
    /// state encodes back to `payload`. One cursor reads the engine state,
    /// the blank line, the submission state, then the optional lease and
    /// elastic sections that follow its `jobmap` line: each present only
    /// when its set is non-empty, lease first, in ascending order.
    fn decode(payload: &str) -> Option<ControlState> {
        let mut input = wire::Cursor::new(payload);
        let jobmanager = JobManager::decode_from(&mut input)?;
        let submissions = SubmissionService::decode_from(input.after("\n")?)?;
        let mut section = |header: &str| -> Option<BTreeSet<usize>> {
            let mut held = BTreeSet::new();
            if input.eat(header) {
                let mut last = None;
                input.list(|input| {
                    held.insert(input.ascending(&mut last)?);
                    Some(())
                })?;
                if held.is_empty() {
                    return None;
                }
            }
            Some(held)
        };
        let leases = section("\nlease ")?;
        let elastic = section("\nelastic ")?;
        input.finish(ControlState { jobmanager, submissions, leases, elastic })
    }
}

/// The journaled control plane: a [`JobManager`] + [`SubmissionService`] pair
/// (plus this shard's lease and elastic sets) whose every state transition
/// is appended to a quorum-replicated log before it is applied, with
/// leadership decided *inside* the store: the leader lease is a CAS'd key in
/// the same quorum KV that holds the journal ([`StoreElection`]), so election
/// and data share one fault domain — there is no window where an election
/// cluster has a leader the data replicas cannot serve.
///
/// Every operation runs in three steps. It *decides* on the current state
/// and writes nothing: validation, the trigger check, the NSGA-II schedule,
/// the boundary split and the escalation scan yield
/// [`ControlPlaneEvent`]s. It *journals* them, in one quorum round. Then it
/// *applies* them through the function failover replays the journal with,
/// and acts on what that returns (fleet enqueues, tickets). A journal write
/// that fails returns an error with the state and the fleet untouched, so
/// the log can only ever be *ahead* of the volatile state, never behind, and
/// a crash between journal and apply replays the tail on recovery.
///
/// In a sharded deployment ([`crate::sharding::ShardedControlPlane`]) each
/// shard is one `ReplicatedControlPlane` that additionally journals the QPU
/// leases it holds from the shared fleet allocator
/// ([`crate::fleetlease::FleetAllocator`]); that lease set is rebuilt by
/// `snapshot + log replay` exactly like the engine state.
#[derive(Debug)]
pub struct ReplicatedControlPlane {
    election: StoreElection,
    log: ReplicatedLog<ControlPlaneEvent>,
    state: ControlState,
    /// FNV-1a-128 of the full-encode payload installed at the last snapshot
    /// (genesis included) — the anchor of the incremental state digest.
    digest_checkpoint: Cell<u128>,
    /// Rolling FNV-1a-128 over every journaled event line since that
    /// checkpoint. `(checkpoint, rolling)` together identify the state:
    /// same anchor bytes + same journaled suffix ⇒ same replayed state.
    digest_rolling: Cell<u128>,
    /// Cumulative wall time spent inside quorum journal writes (phase-timing
    /// observability; never read by control flow).
    journal_ns: Cell<u64>,
}

impl ReplicatedControlPlane {
    /// A control plane whose engine is gated by `trigger` (calibration-naive
    /// dispatch), journaling to a fresh store of `2f + 1` replicas, with
    /// `2f + 1` electable control nodes whose leader lease lives in that same
    /// store. Installs a genesis snapshot so a replica can always rebuild,
    /// and elects the initial leader. (`_seed` is unused — the in-store
    /// election is deterministic — and kept only because callers pass it.)
    pub fn new(trigger: ScheduleTrigger, fault_tolerance: usize, _seed: u64) -> Self {
        Self::with_policy(trigger, CalibrationPolicy::default(), fault_tolerance)
    }

    /// [`Self::new`] with an explicit calibration policy for the batch engine
    /// (the policy is part of the genesis snapshot, so rebuilt replicas split
    /// batches exactly like the original).
    pub fn with_policy(
        trigger: ScheduleTrigger,
        policy: CalibrationPolicy,
        fault_tolerance: usize,
    ) -> Self {
        let store = ReplicatedKvStore::new(fault_tolerance);
        let log = ReplicatedLog::new(store.clone(), "ctl");
        let mut election = StoreElection::new(store, "ctl", 2 * fault_tolerance + 1);
        election.campaign().expect("fresh store has a quorum");
        let plane = ReplicatedControlPlane {
            election,
            log,
            state: ControlState::new(trigger, policy),
            digest_checkpoint: Cell::new(FNV128_OFFSET),
            digest_rolling: Cell::new(FNV128_OFFSET),
            journal_ns: Cell::new(0),
        };
        plane.snapshot().expect("fresh store has a quorum");
        plane
    }

    /// Cumulative nanoseconds spent in quorum journal writes (phase-timing
    /// observability).
    pub fn journal_nanos(&self) -> u64 {
        self.journal_ns.get()
    }

    /// Journal one event: a timed quorum append, folded into the rolling
    /// digest only once durably committed (a failed append must not advance
    /// the digest — the state it fingerprints never changed). The event is
    /// encoded once: the log hands the line it is about to store to the
    /// hasher.
    fn journal(&self, event: &ControlPlaneEvent) -> Result<u64, StoreError> {
        let started = Instant::now();
        let mut rolling = Fnv128::from_state(self.digest_rolling.get());
        let result = self.log.append_with(event, |line| absorb_line(&mut rolling, line));
        self.journaled(started, rolling, result)
    }

    /// Journal a staged batch atomically in one quorum round
    /// ([`ReplicatedLog::append_all_with`]): either every event commits or none
    /// does, and the rolling digest advances only in the former case. The
    /// absorbed bytes are each event's encoded line plus `'\n'`, exactly what
    /// [`Self::journal`] absorbs per event, so batched and per-event paths
    /// roll to the same digest.
    fn journal_all(&self, events: &[ControlPlaneEvent]) -> Result<u64, StoreError> {
        let started = Instant::now();
        let mut rolling = Fnv128::from_state(self.digest_rolling.get());
        let result = self.log.append_all_with(events, |line| absorb_line(&mut rolling, line));
        self.journaled(started, rolling, result)
    }

    /// Account one journal write: its wall time always, the digest it rolled
    /// to only if it committed.
    fn journaled(
        &self,
        started: Instant,
        rolling: Fnv128,
        result: Result<u64, StoreError>,
    ) -> Result<u64, StoreError> {
        self.journal_ns.set(self.journal_ns.get() + started.elapsed().as_nanos() as u64);
        if result.is_ok() {
            self.digest_rolling.set(rolling.value());
        }
        result
    }

    /// Journal one decided event, then apply it.
    fn commit(&mut self, event: ControlPlaneEvent) -> Result<Applied, ReplicationError> {
        self.journal(&event)?;
        Ok(self.state.apply(&event))
    }

    /// Commit `event` if the decision to make it holds; report whether it
    /// did (a refused operation journals nothing).
    fn commit_if(
        &mut self,
        holds: bool,
        event: ControlPlaneEvent,
    ) -> Result<bool, ReplicationError> {
        if holds {
            self.commit(event)?;
        }
        Ok(holds)
    }

    /// The batch engine (read-only; every mutation goes through the journal).
    pub fn jobmanager(&self) -> &JobManager {
        &self.state.jobmanager
    }

    /// The submission service (read-only; every mutation goes through the
    /// journal).
    pub fn submissions(&self) -> &SubmissionService {
        &self.state.submissions
    }

    /// The in-store leader election (the leader lease lives in the same
    /// quorum KV as the journal).
    pub fn election(&self) -> &StoreElection {
        &self.election
    }

    /// The journal.
    pub fn log(&self) -> &ReplicatedLog<ControlPlaneEvent> {
        &self.log
    }

    /// The replicated store backing the journal (crash/recover replicas here
    /// to fault-inject the storage tier).
    pub fn store(&self) -> &ReplicatedKvStore {
        self.log.store()
    }

    /// The current control-plane leader, if one holds a live lease in the
    /// store.
    pub fn leader(&self) -> Option<usize> {
        self.election.leader()
    }

    /// Register a tenant with the given weight (journaled).
    pub fn register_tenant(&mut self, weight: u32) -> Result<TenantId, ReplicationError> {
        self.register_tenant_with(TenantConfig::weighted(weight))
    }

    /// Register a tenant with an explicit configuration (journaled).
    pub fn register_tenant_with(
        &mut self,
        config: TenantConfig,
    ) -> Result<TenantId, ReplicationError> {
        self.register(config, None)
    }

    /// Register a tenant with an SLO class (journaled — the class rides the
    /// registration event so failover replays every later escalation decision
    /// derived from it).
    pub fn register_tenant_with_slo(
        &mut self,
        config: TenantConfig,
        slo: SloClass,
    ) -> Result<TenantId, ReplicationError> {
        self.register(config, Some(slo))
    }

    fn register(
        &mut self,
        config: TenantConfig,
        slo: Option<SloClass>,
    ) -> Result<TenantId, ReplicationError> {
        let applied = self.commit(ControlPlaneEvent::TenantRegistered { config, slo })?;
        Ok(applied.tenant.expect("a registration assigns an id"))
    }

    /// Non-blocking submission into the tenant's FIFO queue (journaled).
    pub fn submit(
        &mut self,
        tenant: TenantId,
        spec: JobSpec,
        now_s: f64,
    ) -> Result<JobTicket, ReplicationError> {
        if self.state.submissions.tenant_stats(tenant).is_none() {
            return Err(SubmissionError::UnknownTenant(tenant).into());
        }
        let applied = self.commit(ControlPlaneEvent::JobSubmitted { tenant, spec, now_s })?;
        Ok(applied.ticket.expect("tenant checked above"))
    }

    /// Observe a ticket's progress (read-only, served locally).
    pub fn poll(&self, ticket: JobTicket) -> Option<TicketStatus> {
        self.state.submissions.poll(ticket)
    }

    /// One weighted-fair admission cycle into the engine's pending pool: the
    /// SLO bypass lane first — queued tickets whose deadline would be missed
    /// by waiting one more trigger interval jump the DRR scan, each a typed
    /// [`ControlPlaneEvent::SloEscalated`] event — then one DRR pass,
    /// journaled as an [`ControlPlaneEvent::AdmissionPass`] (the pass is
    /// deterministic given the state, so only its instant is logged). A cycle
    /// with every tenant queue empty journals and changes nothing.
    ///
    /// The whole cycle is committed in ONE quorum round (group commit) before
    /// anything is applied. The journal bytes, keys, and ordering are
    /// identical to one quorum round per event; a crash between stage and
    /// commit leaves the log at its pre-batch state, so replay lands on the
    /// pre-batch bytes (the chaos matrix proves this).
    pub fn admit(&mut self, now_s: f64) -> Result<Vec<(JobTicket, JobId)>, ReplicationError> {
        let events = self.state.admission_events(now_s);
        if events.is_empty() {
            return Ok(Vec::new());
        }
        self.journal_all(&events)?;
        let mut admitted = Vec::new();
        for event in &events {
            let applied = self.state.apply(event);
            debug_assert!(
                !matches!(event, ControlPlaneEvent::SloEscalated { .. })
                    || applied.admitted.len() == 1,
                "escalation tickets are pre-validated: each admits exactly one job"
            );
            admitted.extend(applied.admitted);
        }
        Ok(admitted)
    }

    /// One trigger-gated scheduling cycle: decide the batch (the NSGA-II
    /// schedule and the boundary split), journal it, apply it — the pool
    /// change and the submission service's rejection accounting — and
    /// enqueue the placements onto the fleet queues. Returns `Ok(None)` when
    /// the trigger does not fire. A journal without quorum is an error that
    /// leaves the state and the fleet untouched; it is checked before the
    /// schedule too, so a warm-started scheduler's memory does not advance
    /// for a cycle that cannot be journaled.
    pub fn try_dispatch(
        &mut self,
        now_s: f64,
        scheduler: &HybridScheduler,
        fleet: &mut Fleet,
    ) -> Result<Option<DispatchOutcome>, ReplicationError> {
        if !self.log.store().has_quorum() {
            return Err(StoreError::NoQuorum.into());
        }
        let Some(record) = self.state.jobmanager.decide_batch(now_s, scheduler, fleet) else {
            return Ok(None);
        };
        let applied = self.commit(ControlPlaneEvent::BatchDispatched {
            t_s: now_s,
            placed: record.outcome.placements.iter().map(|p| (p.job_id, p.qpu_index)).collect(),
            rejected: record.outcome.rejected_jobs.clone(),
            deferred: record.deferred.clone(),
        })?;
        enqueue_all(fleet, &applied.enqueues);
        Ok(Some(DispatchOutcome { record, terminal_rejections: applied.terminal_rejections }))
    }

    /// Place one pending job directly onto a QPU queue, bypassing the
    /// trigger and the optimizer (journaled — the baseline path of the cloud
    /// simulation). Returns `Ok(false)`, journaling nothing, if the job is
    /// not pending, the QPU is not in the fleet, or it cannot run the job.
    pub fn dispatch_direct(
        &mut self,
        job_id: JobId,
        qpu_index: usize,
        fleet: &mut Fleet,
    ) -> Result<bool, ReplicationError> {
        let Some(event) = self.state.direct_dispatch(job_id, qpu_index, fleet) else {
            return Ok(false);
        };
        enqueue_all(fleet, &self.commit(event)?.enqueues);
        Ok(true)
    }

    /// Pending jobs whose estimate tables are stale against `fleet_epoch`
    /// (served locally; see [`JobManager::stale_pending`]).
    pub(crate) fn stale_pending(&self, fleet_epoch: u64) -> Vec<JobId> {
        self.state.jobmanager.stale_pending(fleet_epoch)
    }

    /// A pending job by id (read-only), for callers recomputing estimates.
    pub(crate) fn pending_job(&self, job_id: JobId) -> Option<&PendingJob> {
        self.state.jobmanager.pending().iter().find(|j| j.job_id == job_id)
    }

    /// Replace a pending job's estimate table with one recomputed against a
    /// fresh calibration snapshot (journaled, so failover replays the
    /// re-estimation and the rebuilt pool carries the same estimates).
    /// Returns `Ok(false)`, journaling nothing, if the job is not pending.
    pub fn reestimate_job(
        &mut self,
        job_id: JobId,
        spec: JobSpec,
    ) -> Result<bool, ReplicationError> {
        let pending = self.pending_job(job_id).is_some();
        self.commit_if(pending, ControlPlaneEvent::JobReestimated { job_id, spec })
    }

    /// Drain completion records from every fleet queue. Data-plane state:
    /// the control state is neither read nor written, and nothing is
    /// journaled until [`Self::note_completions`] resolves tickets.
    pub fn drain_completions(&self, fleet: &mut Fleet) -> Vec<CompletedExecution> {
        let mut completions = Vec::new();
        for (qpu_index, member) in fleet.members_mut().iter_mut().enumerate() {
            for record in member.queue.take_completed() {
                completions.push(CompletedExecution { job_id: record.job_id, qpu_index, record });
            }
        }
        completions
    }

    /// Account drained completions (journaled per resolved ticket, in one
    /// atomic quorum round for the whole drain) and return the
    /// `(ticket, completion)` pairs this control plane admitted.
    pub fn note_completions(
        &mut self,
        completions: &[CompletedExecution],
    ) -> Result<Vec<(JobTicket, CompletedExecution)>, ReplicationError> {
        let events = self.state.completion_events(completions);
        self.journal_all(&events)?;
        Ok(events.iter().filter_map(|event| self.state.apply(event).completion).collect())
    }

    /// Take a lease on one fleet QPU (journaled *before* the lease is used:
    /// write-ahead, so a crash between grant and first use replays the grant
    /// and the capacity is neither leaked nor double-granted). Returns
    /// `Ok(false)`, journaling nothing, if this shard already holds the
    /// lease.
    pub fn lease_qpu(&mut self, qpu_index: usize) -> Result<bool, ReplicationError> {
        let held = self.state.leases.contains(&qpu_index);
        self.commit_if(!held, ControlPlaneEvent::LeaseGranted { qpu_index })
    }

    /// Return a QPU lease to the shared allocator (journaled). Returns
    /// `Ok(false)`, journaling nothing, if this shard does not hold the
    /// lease.
    pub fn release_qpu(&mut self, qpu_index: usize) -> Result<bool, ReplicationError> {
        let held = self.state.leases.contains(&qpu_index);
        self.commit_if(held, ControlPlaneEvent::LeaseReleased { qpu_index })
    }

    /// Fleet QPU indices this shard currently leases.
    pub(crate) fn leases(&self) -> &BTreeSet<usize> {
        &self.state.leases
    }

    /// Record an autoscaler grow decision: the QPU at `qpu_index` is elastic
    /// capacity of `class` (journaled write-ahead, *before* the caller
    /// mutates the fleet, so a crash between journal and fleet mutation
    /// replays the provisioning). Returns `Ok(false)`, journaling nothing, if
    /// the index is already tracked as elastic.
    pub fn provision_qpu(
        &mut self,
        now_s: f64,
        qpu_index: usize,
        class: ResourceClass,
    ) -> Result<bool, ReplicationError> {
        let elastic = self.state.elastic.contains(&qpu_index);
        self.commit_if(!elastic, ControlPlaneEvent::QpuProvisioned { now_s, qpu_index, class })
    }

    /// Record an autoscaler shrink decision: the elastic QPU at `qpu_index`
    /// leaves the fleet (journaled). Returns `Ok(false)`, journaling nothing,
    /// if the index is not tracked as elastic.
    pub fn retire_qpu(&mut self, now_s: f64, qpu_index: usize) -> Result<bool, ReplicationError> {
        let elastic = self.state.elastic.contains(&qpu_index);
        self.commit_if(elastic, ControlPlaneEvent::QpuRetired { now_s, qpu_index })
    }

    /// Fleet QPU indices currently holding autoscaler-provisioned elastic
    /// capacity.
    pub(crate) fn elastic(&self) -> &BTreeSet<usize> {
        &self.state.elastic
    }

    /// Simulated time of the earliest next job completion across the fleet,
    /// or `None` when no queue has work. Event-driven callers advance time
    /// here instead of draining every queue, so co-batched jobs complete
    /// (and unblock their submitters) as soon as they actually finish. Reads
    /// the fleet only.
    pub fn next_event_s(&self, fleet: &Fleet) -> Option<f64> {
        fleet
            .members()
            .iter()
            .filter_map(|m| m.queue.next_completion_s())
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Earliest simulated time the trigger can fire (delegates to the
    /// engine).
    pub fn next_trigger_s(&self) -> Option<f64> {
        self.state.jobmanager.next_trigger_s()
    }

    /// Checkpoint: install a snapshot of the current state and compact the
    /// journal up to it. Returns the first journal index not covered. The
    /// incremental digest re-anchors here: the checkpoint becomes the hash of
    /// the installed payload and the rolling hash resets, so planes that
    /// snapshot on the same schedule keep comparable digests.
    pub fn snapshot(&self) -> Result<u64, ReplicationError> {
        let upto = self.log.len();
        let payload = self.encode_state();
        let checkpoint = fnv128(payload.as_bytes());
        self.log.install_snapshot(payload, upto)?;
        self.digest_checkpoint.set(checkpoint);
        self.digest_rolling.set(FNV128_OFFSET);
        Ok(upto)
    }

    /// O(1) incremental fingerprint of the control-plane state:
    /// `fnv128 <checkpoint> <rolling>`, where the checkpoint hashes the
    /// full-encode payload installed at the last snapshot and the rolling
    /// hash absorbs every event journaled since. Two planes that snapshot on
    /// the same schedule and journal the same bytes report equal digests;
    /// equal digests fingerprint equal replayed states. This replaces the
    /// former full `encode_state()` re-encode on every comparison — suites
    /// that assert *byte* exactness compare [`Self::encode_state`] directly
    /// (the oracle), not this fingerprint.
    pub fn state_digest(&self) -> String {
        format!("fnv128 {:032x} {:032x}", self.digest_checkpoint.get(), self.digest_rolling.get())
    }

    /// Crash the elected leader: its lease becomes invalid and the *volatile*
    /// control-plane state (engine, submission service, lease set) dies with
    /// it. The replicated journal (and any installed snapshot) survives on
    /// the store replicas. State is unusable until [`Self::failover`]
    /// rebuilds it.
    pub fn crash_leader(&mut self) {
        if let Some(leader) = self.election.leader() {
            self.election.crash(leader);
        }
        self.state = ControlState::default();
        // The digest dies with the volatile state (a crashed plane
        // fingerprints nothing); failover recomputes it from the store.
        self.digest_checkpoint.set(FNV128_OFFSET);
        self.digest_rolling.set(FNV128_OFFSET);
    }

    /// Fail over to a recovered replica: elect a new leader (a CAS on the
    /// lease key — impossible without the store quorum, by design), rebuild
    /// the engine + submission service + lease set deterministically from
    /// `snapshot + log replay`, install the rebuilt state as live, and let
    /// crashed nodes rejoin as followers. With the leader alive the election
    /// only confirms it, so a failover then just reinstalls the state the
    /// store rebuilds.
    pub fn failover(&mut self) -> Result<(), FailoverError> {
        let Ok(Some(_)) = self.election.campaign() else {
            return Err(FailoverError::NoLeader);
        };
        let (state, (checkpoint, rolling)) = self.rebuild()?;
        self.state = state;
        // Recomputed from the store, these equal the pre-crash cells: the
        // checkpoint hashes the same installed payload, and the rolling hash
        // absorbs the same retained entries re-encoded through the same
        // round-tripping codec.
        self.digest_checkpoint.set(checkpoint);
        self.digest_rolling.set(rolling);
        for id in 0..self.election.len() {
            if self.election.is_crashed(id) {
                self.election.recover(id);
            }
        }
        Ok(())
    }

    /// Rebuild the control state from the replicated store without touching
    /// the live state: decode the latest snapshot, then replay every retained
    /// journal entry after it, in order, through [`ControlState::apply`].
    /// Also returns the digest cells the rebuilt state fingerprints to.
    ///
    /// The snapshot's decode and its checkpoint hash run side by side, as
    /// the two parts of one [`par::team`] (one part doing both in turn on a
    /// one-core host): the hash never reads the decode, and the parts come
    /// back in order, so the result is the same either way.
    fn rebuild(&self) -> Result<(ControlState, (u128, u128)), FailoverError> {
        enum Part {
            Decoded(Box<Option<ControlState>>),
            Hashed(u128),
        }
        // Decoded and hashed where it lies in the store: the payload is
        // megabytes, and nothing here needs its own copy.
        let (from, decoded, checkpoint) = self
            .log
            .with_snapshot(|from, payload| {
                // The decode is part 0, which runs on the caller: the state
                // is allocated by the thread it will live on.
                let parts: Vec<&[usize]> =
                    if par::host_cores() > 1 { vec![&[0], &[1]] } else { vec![&[0, 1]] };
                let mut done = par::team(parts, |jobs, _| {
                    let run = |&job| match job {
                        0 => Part::Decoded(Box::new(ControlState::decode(payload))),
                        _ => Part::Hashed(fnv128(payload.as_bytes())),
                    };
                    jobs.iter().map(run).collect::<Vec<_>>()
                })
                .into_iter()
                .flatten();
                match (done.next(), done.next()) {
                    (Some(Part::Decoded(decoded)), Some(Part::Hashed(checkpoint))) => {
                        (from, *decoded, checkpoint)
                    }
                    _ => unreachable!("the parts come back in part order"),
                }
            })
            .ok_or(FailoverError::MissingSnapshot)?;
        let mut state = decoded.ok_or(FailoverError::CorruptState)?;
        let mut rolling = Fnv128::new();
        for (_, event) in self.log.entries_from(from) {
            state.apply(&event);
            absorb_line(&mut rolling, &event.encode());
        }
        Ok((state, (checkpoint, rolling.value())))
    }

    /// Number of journal entries a failover right now would replay on top of
    /// the latest snapshot.
    pub fn replay_backlog(&self) -> u64 {
        let baseline = self.log.with_snapshot(|index, _| index).unwrap_or(0);
        self.log.len().saturating_sub(baseline)
    }

    /// Canonical byte-for-byte encoding of the full control-plane state
    /// (engine + submission service + lease/elastic sets) — the *oracle* the
    /// byte-exactness suites compare. Two states are identical iff their
    /// encodings are equal as strings; [`Self::state_digest`] is the cheap
    /// incremental fingerprint of the same state.
    pub fn encode_state(&self) -> String {
        self.state.encode()
    }
}

/// The per-event journaling path group commit replaced — one quorum round
/// per event — kept as the reference the group-commit journals are tested
/// against. It applies through the same [`ControlState::apply`].
#[cfg(test)]
impl ReplicatedControlPlane {
    fn admit_per_event(&mut self, now_s: f64) -> Result<Vec<(JobTicket, JobId)>, ReplicationError> {
        let Some(escalations) = self.state.escalations_at(now_s) else {
            return Ok(Vec::new());
        };
        let mut admitted = Vec::new();
        for ticket in escalations {
            admitted
                .extend(self.commit(ControlPlaneEvent::SloEscalated { now_s, ticket })?.admitted);
        }
        // The escalations may have drained every queue; the skip guard
        // applies to the DRR pass exactly as it would on an idle call.
        if self.state.submissions.total_queued() > 0 {
            admitted.extend(self.commit(ControlPlaneEvent::AdmissionPass { now_s })?.admitted);
        }
        Ok(admitted)
    }

    fn note_completions_per_event(
        &mut self,
        completions: &[CompletedExecution],
    ) -> Result<Vec<(JobTicket, CompletedExecution)>, ReplicationError> {
        let mut resolved = Vec::new();
        for event in self.state.completion_events(completions) {
            resolved.extend(self.commit(event)?.completion);
        }
        Ok(resolved)
    }
}

/// Fold one journaled line (plus the `'\n'` that separates lines) into a
/// rolling digest.
fn absorb_line(rolling: &mut Fnv128, line: &str) {
    rolling.absorb(line.as_bytes());
    rolling.absorb(b"\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_scheduler::{Nsga2Config, SchedulerConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_fleet(seed: u64) -> Fleet {
        let mut rng = StdRng::seed_from_u64(seed);
        Fleet::ibm_default(&mut rng)
    }

    fn scheduler() -> HybridScheduler {
        HybridScheduler::new(SchedulerConfig {
            nsga2: Nsga2Config {
                population_size: 16,
                max_generations: 8,
                max_evaluations: 800,
                num_threads: 1,
                ..Nsga2Config::default()
            },
            ..SchedulerConfig::default()
        })
    }

    fn spec(fleet: &Fleet, qubits: u32, exec_s: f64) -> JobSpec {
        JobSpec {
            qubits,
            shots: 1000,
            fidelity_per_qpu: fleet
                .members()
                .iter()
                .map(|m| if m.qpu.num_qubits() >= qubits { 0.9 } else { 0.0 })
                .collect(),
            exec_time_per_qpu: fleet
                .members()
                .iter()
                .map(|m| if m.qpu.num_qubits() >= qubits { exec_s } else { f64::INFINITY })
                .collect(),
            estimate_epoch: fleet.calibration_epoch(),
        }
    }

    #[test]
    fn event_codec_roundtrips() {
        let events = vec![
            ControlPlaneEvent::TenantRegistered {
                config: TenantConfig { weight: 3, max_in_flight: usize::MAX, max_retries: 2 },
                slo: None,
            },
            ControlPlaneEvent::TenantRegistered {
                config: TenantConfig { weight: 2, max_in_flight: 8, max_retries: 1 },
                slo: Some(crate::submission::SloClass {
                    deadline_s: 60.0,
                    priority: 3,
                    max_error: 0.02,
                }),
            },
            ControlPlaneEvent::SloEscalated {
                now_s: 42.5,
                ticket: JobTicket { tenant: 3, ticket: 17 },
            },
            ControlPlaneEvent::QpuProvisioned {
                now_s: 300.0,
                qpu_index: 9,
                class: ResourceClass::Simulator,
            },
            ControlPlaneEvent::QpuProvisioned {
                now_s: 301.0,
                qpu_index: 10,
                class: ResourceClass::IonTrap,
            },
            ControlPlaneEvent::QpuRetired { now_s: 900.0, qpu_index: 9 },
            ControlPlaneEvent::JobSubmitted {
                tenant: 7,
                spec: JobSpec {
                    qubits: 5,
                    shots: 1024,
                    fidelity_per_qpu: vec![0.9, 0.0, f64::NAN],
                    exec_time_per_qpu: vec![4.25, f64::INFINITY, -0.0],
                    estimate_epoch: 17,
                },
                now_s: 123.456,
            },
            ControlPlaneEvent::AdmissionPass { now_s: 0.1 + 0.2 },
            ControlPlaneEvent::BatchDispatched {
                t_s: 99.5,
                placed: vec![(0, 3), (2, 1)],
                rejected: vec![1, 4],
                deferred: vec![(5, 3600.0), (6, 7200.0)],
            },
            ControlPlaneEvent::BatchDispatched {
                t_s: 1.0,
                placed: vec![],
                rejected: vec![],
                deferred: vec![],
            },
            ControlPlaneEvent::JobReestimated {
                job_id: 9,
                spec: JobSpec {
                    qubits: 3,
                    shots: 256,
                    fidelity_per_qpu: vec![0.75],
                    exec_time_per_qpu: vec![2.0],
                    estimate_epoch: 4,
                },
            },
            ControlPlaneEvent::DirectDispatched { job_id: 11, qpu_index: 2 },
            ControlPlaneEvent::JobCompleted {
                job_id: 12,
                qpu_index: 4,
                enqueue_s: 1.0,
                start_s: 2.5,
                finish_s: 7.125,
            },
            ControlPlaneEvent::LeaseGranted { qpu_index: 6 },
            ControlPlaneEvent::LeaseReleased { qpu_index: 6 },
        ];
        for event in events {
            let line = event.encode();
            assert!(!line.contains('\n'));
            let back = ControlPlaneEvent::decode(&line).expect("decodes");
            // NaN != NaN under PartialEq: compare the re-encoded line, which
            // is bit-exact.
            assert_eq!(back.encode(), line, "{event:?}");
        }
        assert!(ControlPlaneEvent::decode("bogus 1 2").is_none());
        assert!(ControlPlaneEvent::decode("subm 1").is_none());
        assert!(ControlPlaneEvent::decode("admt 0000000000000000 trailing").is_none());
        assert!(ControlPlaneEvent::decode("treg 1 2 3 not-an-slo").is_none());
        assert!(ControlPlaneEvent::decode("sesc 0000000000000000").is_none());
        assert!(ControlPlaneEvent::decode("qprv 0000000000000000 2 tape").is_none());
        assert!(ControlPlaneEvent::decode("qret 0000000000000000 2 trailing").is_none());
    }

    /// A dispatch line ends in the live-dispatch token `l`; the retired
    /// speculative-dispatch token `s` no longer decodes.
    #[test]
    fn dispatch_lines_accept_only_the_live_token() {
        let line = ControlPlaneEvent::BatchDispatched {
            t_s: 99.5,
            placed: vec![(0, 3), (2, 1)],
            rejected: vec![4],
            deferred: vec![(5, 3600.0)],
        }
        .encode();
        let back = ControlPlaneEvent::decode(&line).expect("a live dispatch decodes");
        assert_eq!(back.encode(), line);
        let body = line.strip_suffix(" l").expect("the live token ends the line");
        assert!(ControlPlaneEvent::decode(&format!("{body} s")).is_none());
    }

    #[test]
    fn lifecycle_is_journaled_and_rebuilds_bit_for_bit() {
        let mut fleet = small_fleet(11);
        let scheduler = scheduler();
        let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(3, 1e12), 1, 5);
        assert!(plane.leader().is_some());
        let tenant = plane.register_tenant(2).unwrap();
        let tickets: Vec<JobTicket> =
            (0..3).map(|i| plane.submit(tenant, spec(&fleet, 5, 6.0), i as f64).unwrap()).collect();
        plane.admit(3.0).unwrap();
        let outcome =
            plane.try_dispatch(3.0, &scheduler, &mut fleet).unwrap().expect("trigger fires");
        assert_eq!(outcome.record.job_ids.len(), 3);
        assert!(outcome.terminal_rejections.is_empty());
        let mut rng = StdRng::seed_from_u64(1);
        fleet.advance_to(1e5, &mut rng);
        let done = plane.drain_completions(&mut fleet);
        plane.note_completions(&done).unwrap();
        for &ticket in &tickets {
            assert!(matches!(plane.poll(ticket), Some(TicketStatus::Completed { .. })));
        }

        // An independent rebuild from the store matches the live state byte
        // for byte (the encode_state oracle, not just the fingerprint).
        let digest = plane.state_digest();
        let oracle = plane.encode_state();
        let (rebuilt, _) = plane.rebuild().expect("rebuild succeeds");
        assert_eq!(rebuilt.encode(), oracle);

        // Crash + failover: the recovered pair is identical too.
        let old_leader = plane.leader().unwrap();
        plane.crash_leader();
        assert_ne!(plane.state_digest(), digest, "volatile state died with the leader");
        plane.failover().expect("failover succeeds");
        assert_eq!(plane.state_digest(), digest);
        assert_eq!(plane.encode_state(), oracle, "replayed bytes, not just matching hashes");
        assert_ne!(plane.leader(), Some(old_leader));
        for &ticket in &tickets {
            assert!(matches!(plane.poll(ticket), Some(TicketStatus::Completed { .. })));
        }
    }

    #[test]
    fn snapshot_compacts_and_failover_replays_the_suffix() {
        let mut fleet = small_fleet(12);
        let scheduler = scheduler();
        let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(2, 1e12), 1, 6);
        let tenant = plane.register_tenant(1).unwrap();
        for i in 0..2 {
            plane.submit(tenant, spec(&fleet, 5, 4.0), i as f64).unwrap();
        }
        plane.admit(2.0).unwrap();
        plane.try_dispatch(2.0, &scheduler, &mut fleet).unwrap().expect("dispatch");
        let upto = plane.snapshot().unwrap();
        assert_eq!(plane.replay_backlog(), 0);
        assert_eq!(plane.log().retained_len(), 0, "journal compacted");

        // Post-snapshot activity replays on top of the snapshot.
        let t2 = plane.submit(tenant, spec(&fleet, 5, 4.0), 3.0).unwrap();
        plane.admit(3.0).unwrap();
        assert!(plane.replay_backlog() >= 2);
        assert!(plane.log().len() > upto);
        let digest = plane.state_digest();
        plane.crash_leader();
        plane.failover().expect("failover succeeds");
        assert_eq!(plane.state_digest(), digest);
        assert!(matches!(plane.poll(t2), Some(TicketStatus::Admitted { .. })));
    }

    #[test]
    fn writes_fail_without_store_quorum_and_resume_after_recovery() {
        let fleet = small_fleet(13);
        let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(4, 1e12), 1, 7);
        let tenant = plane.register_tenant(1).unwrap();
        plane.store().crash_replica(0);
        plane.submit(tenant, spec(&fleet, 5, 4.0), 0.0).unwrap();
        plane.store().crash_replica(1);
        assert_eq!(
            plane.submit(tenant, spec(&fleet, 5, 4.0), 1.0),
            Err(ReplicationError::Store(StoreError::NoQuorum))
        );
        assert_eq!(plane.admit(1.0), Err(ReplicationError::Store(StoreError::NoQuorum)));
        plane.store().recover_replica(0);
        plane.submit(tenant, spec(&fleet, 5, 4.0), 2.0).unwrap();
        assert_eq!(plane.submissions().queued_len(tenant), 2);
    }

    /// Calibration-crossover state is journaled: a batch split at a
    /// recalibration boundary, a post-boundary re-estimation, and a direct
    /// dispatch all replay byte-for-byte through a leader crash + failover.
    #[test]
    fn split_and_reestimate_decisions_survive_failover_byte_for_byte() {
        use qonductor_backend::{FleetMember, JobQueue, Qpu, QpuModel};
        let mut rng = StdRng::seed_from_u64(21);
        let mut qpu = Qpu::new("solo", QpuModel::falcon_27(), 1.0, &mut rng);
        qpu.set_calibration_period(100.0, 0.0);
        let mut fleet = Fleet::from_members(vec![FleetMember { qpu, queue: JobQueue::new() }]);
        let scheduler = scheduler();
        let mut plane = ReplicatedControlPlane::with_policy(
            ScheduleTrigger::new(3, 120.0),
            CalibrationPolicy::SplitAtBoundary,
            1,
        );
        let tenant = plane.register_tenant(1).unwrap();
        for i in 0..3 {
            plane.submit(tenant, spec(&fleet, 5, 40.0), i as f64 * 0.1).unwrap();
        }
        plane.admit(0.5).unwrap();
        let outcome = plane.try_dispatch(0.5, &scheduler, &mut fleet).unwrap().expect("fires");
        // Serialized on the solo QPU, the third job crosses the boundary at
        // 100 and is deferred (not rejected: no retry budget burned).
        assert_eq!(outcome.record.deferred.len(), 1);
        assert!(outcome.terminal_rejections.is_empty());
        let (deferred_id, boundary) = outcome.record.deferred[0];
        assert_eq!(boundary, 100.0);
        let deferred_ticket =
            plane.submissions().admitted_ticket(deferred_id).expect("still admitted");
        assert!(matches!(plane.poll(deferred_ticket), Some(TicketStatus::Admitted { .. })));

        // The boundary passes; the deferred job's estimates go stale and are
        // refreshed (journaled).
        fleet.advance_to(120.0, &mut rng);
        let epoch = fleet.calibration_epoch();
        assert_eq!(plane.stale_pending(epoch), vec![deferred_id]);
        let fresh = JobSpec { estimate_epoch: epoch, ..spec(&fleet, 5, 41.0) };
        assert!(plane.reestimate_job(deferred_id, fresh).unwrap());
        assert!(plane.stale_pending(epoch).is_empty());

        // Crash + failover: the rebuilt state (deferral counters, hold
        // times, refreshed estimates) is byte-identical.
        let digest = plane.state_digest();
        plane.crash_leader();
        plane.failover().expect("failover succeeds");
        assert_eq!(plane.state_digest(), digest);
        assert_eq!(plane.jobmanager().pending()[0].deferrals, 1);
        assert_eq!(plane.jobmanager().pending()[0].held_until_s, 100.0);

        // The re-planned job dispatches cleanly post-boundary and the direct
        // path is journaled too.
        let outcome = plane.try_dispatch(120.6, &scheduler, &mut fleet).unwrap().expect("fires");
        assert!(outcome.record.deferred.is_empty());
        assert_eq!(outcome.record.job_ids, vec![deferred_id]);
        let t4 = plane.submit(tenant, spec(&fleet, 5, 2.0), 121.0).unwrap();
        plane.admit(121.0).unwrap();
        let job4 = match plane.poll(t4).unwrap() {
            TicketStatus::Admitted { job_id } => job_id,
            status => panic!("expected admission, got {status:?}"),
        };
        assert!(plane.dispatch_direct(job4, 0, &mut fleet).unwrap());
        let digest = plane.state_digest();
        plane.crash_leader();
        plane.failover().expect("failover succeeds");
        assert_eq!(plane.state_digest(), digest, "direct dispatch replayed");
    }

    /// A direct dispatch onto the index one past the fleet, for a job whose
    /// estimate table is one entry longer than the fleet (so the estimate
    /// alone reads "runnable"), is refused before anything is journaled: the
    /// live state and a crash-and-failover rebuild of it stay byte-identical.
    #[test]
    fn a_direct_dispatch_past_the_fleet_journals_nothing() {
        let mut fleet = small_fleet(16);
        let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(100, 1e12), 1, 16);
        let tenant = plane.register_tenant(1).unwrap();
        let mut long = spec(&fleet, 5, 4.0);
        long.fidelity_per_qpu.push(0.9);
        long.exec_time_per_qpu.push(4.0);
        plane.submit(tenant, long, 0.0).unwrap();
        let (_, job_id) = plane.admit(0.0).unwrap()[0];
        let journaled = plane.log().len();

        let past = fleet.members().len();
        assert_eq!(plane.dispatch_direct(job_id, past, &mut fleet), Ok(false));
        assert_eq!(plane.log().len(), journaled, "a refused dispatch journals nothing");
        assert_eq!(plane.jobmanager().pending_len(), 1, "the job stays pending");
        let live = plane.encode_state();
        plane.crash_leader();
        plane.failover().expect("failover succeeds");
        assert_eq!(plane.encode_state(), live, "the rebuild equals the live state");
    }

    /// The mid-lease crash the sharded fleet allocator must survive: the
    /// leader dies *between* the lease-journal-append and any use of the
    /// lease. Replay must restore the lease exactly — not leaked (the rebuilt
    /// shard still holds it) and not double-granted (releases replay too, and
    /// re-granting a held lease journals nothing).
    #[test]
    fn lease_grants_survive_a_crash_between_append_and_use() {
        let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::default(), 1, 3);
        assert!(plane.lease_qpu(2).unwrap());
        assert!(plane.lease_qpu(5).unwrap());
        assert!(!plane.lease_qpu(2).unwrap(), "re-granting a held lease journals nothing");
        let journaled = plane.log().len();
        let digest = plane.state_digest();
        assert!(
            plane.encode_state().contains("\nlease 2,5"),
            "the lease set is part of the encoded state"
        );

        // Crash immediately: the grants were journaled but never used.
        plane.crash_leader();
        assert!(plane.leases().is_empty(), "volatile lease state died with the leader");
        plane.failover().expect("failover succeeds");
        assert_eq!(plane.state_digest(), digest, "replay restored the exact lease set");
        assert_eq!(plane.leases().iter().copied().collect::<Vec<_>>(), vec![2, 5]);
        assert_eq!(plane.log().len(), journaled, "failover appends nothing");

        // Releases are journaled and replay symmetrically — including a
        // crash between the release-append and anything observing it.
        assert!(plane.release_qpu(2).unwrap());
        assert!(!plane.release_qpu(2).unwrap(), "double release journals nothing");
        let digest = plane.state_digest();
        plane.crash_leader();
        plane.failover().expect("failover succeeds");
        assert_eq!(plane.state_digest(), digest);
        assert_eq!(plane.leases().iter().copied().collect::<Vec<_>>(), vec![5]);

        // A snapshot folds the lease set into the baseline: replay from the
        // compacted journal still reproduces it.
        plane.snapshot().unwrap();
        assert!(plane.lease_qpu(0).unwrap());
        let digest = plane.state_digest();
        plane.crash_leader();
        plane.failover().expect("failover succeeds");
        assert_eq!(plane.state_digest(), digest);
        assert_eq!(plane.leases().iter().copied().collect::<Vec<_>>(), vec![0, 5]);
    }

    /// SLO escalations and elastic provisioning are journaled: a leader crash
    /// after an escalated admission plus a grow/shrink cycle replays both
    /// event streams byte-for-byte — the rebuilt digest, elastic set, and
    /// escalation counters are identical.
    #[test]
    fn slo_escalations_and_elastic_capacity_survive_failover() {
        let fleet = small_fleet(15);
        let mut plane = ReplicatedControlPlane::new(
            ScheduleTrigger::new(100, 30.0).with_slo_margin(2.0),
            1,
            10,
        );
        let bulk = plane.register_tenant(5).unwrap();
        let slo = plane
            .register_tenant_with_slo(TenantConfig::weighted(1), SloClass::with_deadline(20.0))
            .unwrap();
        for i in 0..4 {
            plane.submit(bulk, spec(&fleet, 5, 5.0), i as f64 * 0.1).unwrap();
        }
        let urgent = plane.submit(slo, spec(&fleet, 5, 5.0), 1.0).unwrap();
        // At t=2 the interval+margin horizon (32 s) overshoots the absolute
        // deadline at 21: the ticket jumps the DRR scan through the lane.
        let admitted = plane.admit(2.0).unwrap();
        assert_eq!(admitted.first().map(|&(t, _)| t), Some(urgent), "escalation admits first");
        assert_eq!(plane.submissions().tenant_stats(slo).unwrap().escalated, 1);

        // Elastic capacity: grow/shrink journal with idempotence guards.
        assert!(plane.provision_qpu(2.0, 7, ResourceClass::Simulator).unwrap());
        assert!(!plane.provision_qpu(2.5, 7, ResourceClass::Simulator).unwrap());
        assert!(plane.provision_qpu(3.0, 8, ResourceClass::Simulator).unwrap());
        assert!(plane.retire_qpu(4.0, 8).unwrap());
        assert!(!plane.retire_qpu(4.0, 8).unwrap(), "double retire journals nothing");

        let digest = plane.state_digest();
        assert!(
            plane.encode_state().contains("\nelastic 7"),
            "the elastic set is part of the encoded state"
        );
        plane.crash_leader();
        assert!(plane.elastic().is_empty(), "volatile elastic state died with the leader");
        plane.failover().expect("failover succeeds");
        assert_eq!(plane.state_digest(), digest, "escalations + scaling replay byte-for-byte");
        assert_eq!(plane.elastic().iter().copied().collect::<Vec<_>>(), vec![7]);
        assert_eq!(plane.submissions().tenant_stats(slo).unwrap().escalated, 1);
        assert!(matches!(plane.poll(urgent), Some(TicketStatus::Admitted { .. })));

        // A snapshot folds both sets into the baseline.
        plane.snapshot().unwrap();
        let digest = plane.state_digest();
        plane.crash_leader();
        plane.failover().expect("failover succeeds");
        assert_eq!(plane.state_digest(), digest);
    }

    /// Drive one fixed mixed workload — registrations (bulk + SLO),
    /// submissions, an escalating admission pass, a batch dispatch,
    /// completions — against a seeded plane, journaling admissions and
    /// completions group-committed or one quorum round per event.
    fn drive_fixed_workload(plane: &mut ReplicatedControlPlane, per_event: bool) {
        let mut fleet = small_fleet(93);
        let scheduler = scheduler();
        let bulk = plane.register_tenant(2).unwrap();
        let slo = plane
            .register_tenant_with_slo(TenantConfig::weighted(1), SloClass::with_deadline(20.0))
            .unwrap();
        for i in 0..6 {
            plane.submit(bulk, spec(&fleet, 5, 4.0), i as f64 * 0.1).unwrap();
        }
        let urgent = plane.submit(slo, spec(&fleet, 5, 4.0), 1.0).unwrap();
        // At t=2 the interval+margin horizon (32 s) overshoots the deadline at
        // 21: the SLO ticket escalates, then the DRR pass admits the rest — an
        // admission cycle with both event kinds in one staged batch.
        let admitted =
            if per_event { plane.admit_per_event(2.0) } else { plane.admit(2.0) }.unwrap();
        assert_eq!(admitted.first().map(|&(t, _)| t), Some(urgent), "escalation admits first");
        plane.try_dispatch(31.0, &scheduler, &mut fleet).unwrap().expect("trigger fires");
        let mut rng = StdRng::seed_from_u64(7);
        fleet.advance_to(1e5, &mut rng);
        let done = plane.drain_completions(&mut fleet);
        assert!(!done.is_empty(), "the batch must complete");
        if per_event {
            plane.note_completions_per_event(&done).unwrap();
        } else {
            plane.note_completions(&done).unwrap();
        }
    }

    /// The CI journal-equivalence gate: on a fixed seed, the group-commit path
    /// and the per-event path journal byte-identical event sequences at the
    /// same indices, and leave byte-identical control-plane states. Replay
    /// cannot tell which path wrote the log.
    #[test]
    fn group_commit_and_per_event_paths_write_identical_journals() {
        let trigger = ScheduleTrigger::new(100, 30.0).with_slo_margin(2.0);
        let mut grouped = ReplicatedControlPlane::new(trigger, 1, 93);
        let mut per_event = ReplicatedControlPlane::new(trigger, 1, 93);

        drive_fixed_workload(&mut grouped, false);
        drive_fixed_workload(&mut per_event, true);

        let grouped_entries = grouped.log().entries_from(0);
        let per_event_entries = per_event.log().entries_from(0);
        assert!(grouped_entries.len() > 4, "the workload journals a non-trivial sequence");
        assert_eq!(grouped_entries.len(), per_event_entries.len());
        for ((index_a, event_a), (index_b, event_b)) in
            grouped_entries.iter().zip(per_event_entries.iter())
        {
            assert_eq!(index_a, index_b);
            assert_eq!(event_a.encode(), event_b.encode(), "journal bytes diverged at {index_a}");
        }
        assert_eq!(grouped.encode_state(), per_event.encode_state(), "states diverged");
        assert_eq!(grouped.state_digest(), per_event.state_digest(), "digests diverged");
    }

    /// Election-in-store: leadership lives in the same quorum KV as the
    /// journal, so losing the store majority blocks failover itself — the
    /// split-brain window where an election cluster disagrees with the data
    /// replicas cannot exist.
    #[test]
    fn failover_is_impossible_without_the_store_quorum() {
        let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::default(), 1, 4);
        assert!(plane.leader().is_some());
        plane.crash_leader();
        plane.store().crash_replica(0);
        plane.store().crash_replica(1);
        assert!(matches!(plane.failover(), Err(FailoverError::NoLeader)));
        plane.store().recover_replica(0);
        plane.failover().expect("failover resumes with the quorum");
        assert!(plane.leader().is_some());
    }

    #[test]
    fn unknown_tenant_is_rejected_without_journaling() {
        let fleet = small_fleet(14);
        let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::default(), 1, 8);
        let before = plane.log().len();
        assert_eq!(
            plane.submit(99, spec(&fleet, 5, 4.0), 0.0),
            Err(ReplicationError::Submission(SubmissionError::UnknownTenant(99)))
        );
        assert_eq!(plane.log().len(), before, "failed submissions leave no journal entry");
    }

    /// Floats a text codec is most likely to mangle: signed zero, NaNs with
    /// payloads (quiet and signalling, either sign), infinities, subnormals.
    const HOSTILE_FLOATS: [f64; 9] = [
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::from_bits(0x7ff8_dead_beef_0001),
        f64::from_bits(0xfff0_0000_0000_0001),
        f64::from_bits(1),
    ];

    fn random_float(rng: &mut StdRng) -> f64 {
        if rng.gen_bool(0.25) {
            HOSTILE_FLOATS[rng.gen_range(0..HOSTILE_FLOATS.len())]
        } else {
            rng.gen_range(0.0..100.0)
        }
    }

    fn random_spec(rng: &mut StdRng, qpus: usize) -> JobSpec {
        let infeasible = rng.gen_bool(0.2);
        JobSpec {
            qubits: rng.gen_range(1..200),
            shots: rng.gen_range(1..100_000),
            fidelity_per_qpu: (0..qpus)
                .map(|i| match (infeasible, i % 2) {
                    (true, 0) => 0.0,
                    (true, _) => f64::NAN,
                    (false, _) => random_float(rng),
                })
                .collect(),
            exec_time_per_qpu: (0..qpus).map(|_| random_float(rng)).collect(),
            estimate_epoch: rng.gen_range(0..u64::MAX),
        }
    }

    /// Drive one random lifecycle — SLO and plain tenants, hostile floats,
    /// specs with no QPU columns, retries, every terminal outcome — through
    /// the same [`ControlState::apply`] a failover replays with, handing
    /// each event to `each` before it is applied.
    fn random_lifecycle(case: u64, mut each: impl FnMut(&ControlPlaneEvent)) -> ControlState {
        let mut rng = StdRng::seed_from_u64(0x00c0_dec5 ^ case);
        let qpus = rng.gen_range(0..4usize);
        let policy = if rng.gen_bool(0.5) {
            CalibrationPolicy::Naive
        } else {
            CalibrationPolicy::SplitAtBoundary
        };
        let mut state = ControlState::new(ScheduleTrigger::new(rng.gen_range(1..6), 30.0), policy);
        // Dispatched jobs whose completion has not been journaled yet.
        let mut running: Vec<(JobId, usize)> = Vec::new();
        let mut now_s = 0.0;
        for _ in 0..rng.gen_range(10..140) {
            now_s += rng.gen_range(0.0..6.0);
            let pending: Vec<JobId> =
                state.jobmanager.pending().iter().map(|job| job.job_id).collect();
            let event = match rng.gen_range(0..14) {
                0 | 1 => ControlPlaneEvent::TenantRegistered {
                    config: TenantConfig {
                        weight: rng.gen_range(0..4),
                        max_in_flight: rng.gen_range(1..4),
                        max_retries: rng.gen_range(0..3),
                    },
                    slo: rng.gen_bool(0.4).then(|| SloClass {
                        deadline_s: [4.0, 25.0, f64::INFINITY, random_float(&mut rng)]
                            [rng.gen_range(0..4usize)],
                        priority: rng.gen_range(0..4),
                        max_error: random_float(&mut rng),
                    }),
                },
                2..=5 if state.submissions.tenant_count() > 0 => ControlPlaneEvent::JobSubmitted {
                    tenant: rng.gen_range(0..state.submissions.tenant_count()) as TenantId,
                    spec: random_spec(&mut rng, qpus),
                    now_s,
                },
                6 | 7 => ControlPlaneEvent::AdmissionPass { now_s },
                8 => match state.submissions.pending_escalations(now_s, 10.0, 4).first() {
                    Some(&ticket) => ControlPlaneEvent::SloEscalated { now_s, ticket },
                    None => continue,
                },
                9 if !pending.is_empty() => {
                    let (mut placed, mut rejected, mut deferred) = (vec![], vec![], vec![]);
                    for &job in &pending {
                        match rng.gen_range(0..4) {
                            0 => placed.push((job, rng.gen_range(0..8usize))),
                            1 => rejected.push(job),
                            2 => deferred.push((job, now_s + rng.gen_range(1.0..500.0))),
                            _ => {}
                        }
                    }
                    running.extend(placed.iter().copied());
                    ControlPlaneEvent::BatchDispatched { t_s: now_s, placed, rejected, deferred }
                }
                10 if !running.is_empty() => {
                    let (job_id, qpu_index) = running.swap_remove(rng.gen_range(0..running.len()));
                    let start_s = now_s + random_float(&mut rng);
                    ControlPlaneEvent::JobCompleted {
                        job_id,
                        qpu_index,
                        enqueue_s: now_s,
                        start_s,
                        finish_s: start_s + random_float(&mut rng),
                    }
                }
                11 if !pending.is_empty() => ControlPlaneEvent::JobReestimated {
                    job_id: pending[rng.gen_range(0..pending.len())],
                    spec: random_spec(&mut rng, qpus),
                },
                12 if !pending.is_empty() => {
                    let job_id = pending[rng.gen_range(0..pending.len())];
                    let qpu_index = rng.gen_range(0..8usize);
                    running.push((job_id, qpu_index));
                    ControlPlaneEvent::DirectDispatched { job_id, qpu_index }
                }
                13 => {
                    let qpu_index = rng.gen_range(0..6usize);
                    match rng.gen_range(0..4) {
                        0 => ControlPlaneEvent::LeaseGranted { qpu_index },
                        1 => ControlPlaneEvent::LeaseReleased { qpu_index },
                        2 => ControlPlaneEvent::QpuRetired { now_s, qpu_index },
                        _ => ControlPlaneEvent::QpuProvisioned {
                            now_s,
                            qpu_index,
                            class: [
                                ResourceClass::Superconducting,
                                ResourceClass::IonTrap,
                                ResourceClass::Simulator,
                            ][rng.gen_range(0..3usize)],
                        },
                    }
                }
                _ => continue,
            };
            each(&event);
            state.apply(&event);
        }
        state
    }

    /// The cursor decoders and the `split`/`parse` oracles they replaced read
    /// `state`'s encodings back to the same bytes, with consistent derived
    /// indices — and so does the one-cursor decode of the combined payload.
    fn assert_decoders_match_the_oracle(state: &ControlState, case: &str) {
        let jm = state.jobmanager.encode_state();
        for decoded in [JobManager::decode_state(&jm), JobManager::decode_state_oracle(&jm)] {
            assert_eq!(decoded.expect("the engine state decodes").encode_state(), jm, "{case}");
        }
        let svc = state.submissions.encode_state();
        for decoded in
            [SubmissionService::decode_state(&svc), SubmissionService::decode_state_oracle(&svc)]
        {
            let decoded = decoded.expect("the submission state decodes");
            assert!(decoded.indices_consistent(), "{case}");
            assert_eq!(decoded.encode_state(), svc, "{case}");
        }
        let combined = state.encode();
        let back = ControlState::decode(&combined).expect("an encoded state decodes");
        assert!(back.submissions.indices_consistent(), "{case}");
        assert_eq!(
            back.encode(),
            combined,
            "{case}: decode(encode(s)) must re-encode to the same bytes"
        );
    }

    /// The state the `controlplane-drain` benchmark snapshots, built here:
    /// 10⁵ tenants, 8,000 tickets admitted in one pass, dispatched and
    /// completed, on an eight-QPU fleet.
    fn drain_shaped_state() -> ControlState {
        const TENANTS: usize = 100_000;
        const JOBS: usize = 8_000;
        let mut rng = StdRng::seed_from_u64(0xd7a1);
        let trigger = ScheduleTrigger::new(JOBS, 30.0);
        let mut state = ControlState::new(trigger, CalibrationPolicy::Naive);
        for _ in 0..TENANTS {
            let config = TenantConfig::weighted(rng.gen_range(1..5));
            state.apply(&ControlPlaneEvent::TenantRegistered { config, slo: None });
        }
        for j in 0..JOBS {
            state.apply(&ControlPlaneEvent::JobSubmitted {
                tenant: ((j * 7919) % TENANTS) as TenantId,
                spec: random_spec(&mut rng, 8),
                now_s: j as f64 * 1e-3,
            });
        }
        let admitted = state.apply(&ControlPlaneEvent::AdmissionPass { now_s: 10.0 }).admitted;
        assert_eq!(admitted.len(), JOBS, "one pass admits the whole backlog");
        let placed: Vec<(JobId, usize)> =
            admitted.iter().map(|&(_, job)| (job, job as usize % 8)).collect();
        let dispatch = ControlPlaneEvent::BatchDispatched {
            t_s: 10.0,
            placed: placed.clone(),
            rejected: vec![],
            deferred: vec![],
        };
        state.apply(&dispatch);
        for (i, (job_id, qpu_index)) in placed.into_iter().enumerate() {
            state.apply(&ControlPlaneEvent::JobCompleted {
                job_id,
                qpu_index,
                enqueue_s: 10.0,
                start_s: 10.0 + i as f64,
                finish_s: 12.5 + i as f64,
            });
        }
        state
    }

    /// The byte-exactness gate of the streaming codecs: over random
    /// lifecycles every event line and every state encoding equals the
    /// `format!` oracle it replaced byte for byte; the cursor decoders and
    /// the `split`/`parse` oracles they replaced decode every one of them to
    /// the same bytes; and so does a drain-shaped state of 10⁵ tenants.
    #[test]
    fn streaming_codecs_match_the_format_oracle_on_random_lifecycles() {
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        for case in 0..96u64 {
            let state = random_lifecycle(case, |event| {
                let line = event.encode();
                assert_eq!(line, event.encode_oracle(), "case {case}: {event:?}");
                for back in
                    [ControlPlaneEvent::decode(&line), ControlPlaneEvent::decode_oracle(&line)]
                {
                    assert_eq!(
                        back.expect("an encoded event decodes").encode(),
                        line,
                        "case {case}"
                    );
                }
            });
            let (jm, svc) = (&state.jobmanager, &state.submissions);
            let (jm_bytes, svc_bytes) = (jm.encode_state(), svc.encode_state());
            assert_eq!(jm_bytes, jm.encode_state_oracle(), "case {case}");
            assert_eq!(svc_bytes, svc.encode_state_oracle(), "case {case}");
            let mut oracle = format!("{jm_bytes}\n{svc_bytes}");
            for (section, held) in [("lease", &state.leases), ("elastic", &state.elastic)] {
                if !held.is_empty() {
                    let held = held.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
                    oracle.push_str(&format!("\n{section} {held}"));
                    seen.insert(section);
                }
            }
            let combined = state.encode();
            assert_eq!(combined, oracle, "case {case}");
            assert_decoders_match_the_oracle(&state, &format!("case {case}"));

            // What this case's state exercised, read off the encoding.
            for line in svc_bytes.lines() {
                let fields: Vec<&str> = line.split(' ').collect();
                seen.insert(match fields[0] {
                    "tenant" if fields[5] == "-" => "plain tenant",
                    "tenant" => "slo tenant",
                    "ticket" => match (fields[5], fields[4]) {
                        ("q", "0") => "queued",
                        ("q", _) => "requeued after a rejection",
                        ("r:x", _) => "retries exhausted",
                        ("r:d", _) => "deadline missed",
                        ("r:i", _) => "infeasible",
                        (state, _) if state.starts_with("a:") => "admitted",
                        _ => "completed",
                    },
                    "jobmap" if fields[1] == "-" => "empty jobmap",
                    "jobmap" => "jobmap",
                    _ => continue,
                });
            }
            if jm.pending().iter().any(|job| job.deferrals > 0) {
                seen.insert("deferred job");
            }
            if svc.snapshot().iter().any(|(_, stats)| stats.escalated > 0) {
                seen.insert("escalated");
            }
        }
        let expected = [
            "admitted",
            "completed",
            "deadline missed",
            "deferred job",
            "elastic",
            "empty jobmap",
            "escalated",
            "infeasible",
            "jobmap",
            "lease",
            "plain tenant",
            "queued",
            "requeued after a rejection",
            "retries exhausted",
            "slo tenant",
        ];
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), expected, "the lifecycles lost coverage");

        let drain = drain_shaped_state();
        assert_eq!(drain.submissions.tenant_count(), 100_000);
        assert_decoders_match_the_oracle(&drain, "drain-shaped state");
    }

    /// The one-tenant state the canonical-decode tests edit: an SLO tenant
    /// with an admitted ticket, pending in the engine, and a queued one.
    fn one_tenant_state() -> ControlState {
        let mut state = ControlState::new(ScheduleTrigger::new(1, 30.0), CalibrationPolicy::Naive);
        let spec = JobSpec {
            qubits: 5,
            shots: 1000,
            fidelity_per_qpu: vec![0.9, 0.625],
            exec_time_per_qpu: vec![4.0, 10.0],
            estimate_epoch: 3,
        };
        let config = TenantConfig { weight: 2, max_in_flight: 4, max_retries: 1 };
        for event in [
            ControlPlaneEvent::TenantRegistered {
                config,
                slo: Some(SloClass::with_deadline(60.0)),
            },
            ControlPlaneEvent::JobSubmitted { tenant: 0, spec: spec.clone(), now_s: 1.5 },
            ControlPlaneEvent::JobSubmitted { tenant: 0, spec, now_s: 2.0 },
            ControlPlaneEvent::AdmissionPass { now_s: 3.0 },
        ] {
            state.apply(&event);
        }
        state
    }

    /// One state decoder's input and its decode, re-encoded.
    type Decoder = (&'static str, String, fn(&str) -> Option<String>);

    /// The engine, submission and combined encodings of `state`, each with
    /// its decoder.
    fn state_decoders(state: &ControlState) -> [Decoder; 3] {
        [
            ("JobManager", state.jobmanager.encode_state(), |text| {
                JobManager::decode_state(text).map(|jm| jm.encode_state())
            }),
            ("SubmissionService", state.submissions.encode_state(), |text| {
                SubmissionService::decode_state(text).map(|svc| svc.encode_state())
            }),
            ("ControlState", state.encode(), |text| ControlState::decode(text).map(|s| s.encode())),
        ]
    }

    /// Every state decoder decodes the one-tenant state to itself, and
    /// refuses it after a one-edit `variant`: `jm_edit` in an engine row,
    /// `svc_edit` in the tenant row (the combined payload gets each in turn).
    fn assert_rejects(variant: &str, jm_edit: [&str; 2], svc_edit: [&str; 2]) {
        for (decoder, text, decode) in state_decoders(&one_tenant_state()) {
            assert_eq!(decode(&text).as_deref(), Some(text.as_str()), "{decoder}");
            let edits = match decoder {
                "JobManager" => vec![jm_edit],
                "SubmissionService" => vec![svc_edit],
                _ => vec![jm_edit, svc_edit],
            };
            for [from, to] in edits {
                let edited = text.replacen(from, to, 1);
                assert_ne!(edited, text, "{decoder}: {from:?} is not in {text:?}");
                assert_eq!(decode(&edited), None, "{decoder} decoded {variant}: {edited:?}");
            }
        }
    }

    /// Rust's integer parsing accepts a leading `+`; the encoder never
    /// writes one.
    #[test]
    fn canonical_decode_rejects_a_leading_plus() {
        assert_rejects("a leading `+`", ["job 0 0 ", "job 0 +0 "], ["tenant 0 2 ", "tenant 0 +2 "]);
    }

    /// `from_str_radix` accepts uppercase hex digits, one bit flip (0x20)
    /// away from the lowercase ones the encoder writes.
    #[test]
    fn canonical_decode_rejects_uppercase_hex() {
        assert_rejects(
            "an uppercase hex digit",
            ["cccd,", "cccD,"],
            ["404e000000000000:", "404E000000000000:"],
        );
    }

    /// A field after the last one of a line: only `job` rows used to check.
    #[test]
    fn canonical_decode_rejects_a_trailing_field() {
        assert_rejects(
            "a trailing field",
            ["\ncal naive", "\ncal naive junk"],
            ["\nticket 0 ", " junk\nticket 0 "],
        );
    }

    /// Canonical decoding as a property: over random lifecycles, flipping
    /// bit 5 of one byte (the case bit of a letter), or inserting a `+` or a
    /// space, leaves bytes that every state decoder — and the event decoder,
    /// on a journal line — refuses or decodes to exactly those bytes.
    #[test]
    fn canonical_decode_refuses_every_one_byte_edit_or_reencodes_it() {
        for case in 0..48u64 {
            let mut lines = Vec::new();
            let state = random_lifecycle(case, |event| lines.push(event.encode()));
            let mut rng = StdRng::seed_from_u64(0x0ed1_7000 ^ case);
            let event: Decoder =
                ("ControlPlaneEvent", lines.swap_remove(rng.gen_range(0..lines.len())), |line| {
                    ControlPlaneEvent::decode(line).map(|event| event.encode())
                });
            for (decoder, text, decode) in state_decoders(&state).into_iter().chain([event]) {
                assert_eq!(decode(&text).as_deref(), Some(text.as_str()), "case {case}");
                for _ in 0..24 {
                    let mut bytes = text.clone().into_bytes();
                    match rng.gen_range(0..3) {
                        0 => bytes[rng.gen_range(0..text.len())] ^= 0x20,
                        1 => bytes.insert(rng.gen_range(0..=text.len()), b'+'),
                        _ => bytes.insert(rng.gen_range(0..=text.len()), b' '),
                    }
                    let edited = String::from_utf8(bytes).expect("ASCII stays ASCII");
                    let decoded = decode(&edited);
                    assert!(
                        decoded.as_ref().is_none_or(|back| *back == edited),
                        "case {case}: {decoder} decoded {edited:?} to {decoded:?}"
                    );
                }
            }
        }
    }

    /// Failover after a snapshot reproduces the digest and the state bytes
    /// with a minority of the store's replicas down — first the minority
    /// that missed the snapshot install and its compaction, then, once those
    /// recovered, another — for f = 1 and f = 2.
    #[test]
    fn failover_after_a_snapshot_survives_a_minority_of_crashed_replicas() {
        for f in [1usize, 2] {
            let trigger = ScheduleTrigger::new(100, 30.0).with_slo_margin(2.0);
            let mut plane = ReplicatedControlPlane::new(trigger, f, 93);
            drive_fixed_workload(&mut plane, false);
            for replica in 0..f {
                plane.store().crash_replica(replica);
            }
            plane.snapshot().unwrap();
            assert!(plane.lease_qpu(3).unwrap(), "a journaled suffix to replay");
            let live = (plane.state_digest(), plane.encode_state());
            for down in [0..f, f..2 * f] {
                for replica in 0..2 * f + 1 {
                    if down.contains(&replica) {
                        plane.store().crash_replica(replica);
                    } else {
                        plane.store().recover_replica(replica);
                    }
                }
                plane.crash_leader();
                plane.failover().expect("a majority of the replicas is live");
                assert_eq!((plane.state_digest(), plane.encode_state()), live, "f = {f}, {down:?}");
            }
        }
    }
}
