//! The job submission service (paper §3 lists "job submission" among the
//! portal functionality; the RunJob and PEAC projects of §1 ran Monte
//! Carlo production and analysis jobs through Clarens services).
//!
//! Jobs are command lines executed asynchronously in the caller's shell
//! sandbox (same DN → system-user mapping and confinement as
//! [`super::shell`]); the submitter polls status and collects output —
//! the batch-like interaction the portal's job-submission page drove.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens_httpd::Watermark;
use parking_lot::Mutex;

use clarens_wire::{Fault, Value};

use crate::registry::param::{int, string};
use crate::registry::{Args, CallContext, Hold, Method, Service};
use crate::services::shell::{self, interp, UserMap};

/// One submitted job.
struct JobRecord {
    owner: String,
    command: String,
    submitted: i64,
    /// Populated when the job finishes.
    outcome: Option<interp::Outcome>,
    handle: Option<std::thread::JoinHandle<interp::Outcome>>,
    /// Raised by the job's thread as it finishes: what `job.wait` holds on.
    done: Arc<Watermark<bool>>,
}

impl JobRecord {
    fn state(&mut self) -> &'static str {
        match self.handle.take() {
            Some(handle) if !handle.is_finished() && !self.done.get() => {
                self.handle = Some(handle);
                "running"
            }
            Some(handle) => {
                self.outcome = Some(handle.join().unwrap_or_else(|_| interp::Outcome {
                    stdout: String::new(),
                    stderr: "job thread panicked".into(),
                    status: 1,
                }));
                "done"
            }
            None => "done",
        }
    }
}

/// The `job` service.
pub struct JobService {
    root: PathBuf,
    user_map: UserMap,
    jobs: Arc<Mutex<HashMap<u64, JobRecord>>>,
    next_id: AtomicU64,
    /// Maximum live jobs per identity.
    max_per_owner: usize,
}

impl JobService {
    /// Create the service; jobs run in sandboxes under `root` (normally
    /// the shell root).
    pub fn new(root: PathBuf, user_map: UserMap) -> Self {
        JobService {
            root,
            user_map,
            jobs: Arc::default(),
            next_id: AtomicU64::new(1),
            max_per_owner: 16,
        }
    }

    fn job_value(id: u64, record: &mut JobRecord) -> Value {
        let state = record.state();
        let mut fields = vec![
            ("id", Value::Int(id as i64)),
            ("command", Value::from(record.command.clone())),
            ("submitted", Value::Int(record.submitted)),
            ("state", Value::from(state)),
        ];
        if let Some(outcome) = &record.outcome {
            fields.push(("status", Value::Int(outcome.status)));
            fields.push(("stdout", Value::from(outcome.stdout.clone())));
            fields.push(("stderr", Value::from(outcome.stderr.clone())));
        }
        Value::structure(fields)
    }
}

/// The caller's job `id`, under the table lock.
fn owned<'a>(
    jobs: &'a mut HashMap<u64, JobRecord>,
    id: u64,
    owner: &str,
) -> Result<&'a mut JobRecord, Fault> {
    let record = jobs
        .get_mut(&id)
        .ok_or_else(|| Fault::service(format!("no job {id}")))?;
    if record.owner != owner {
        return Err(Fault::access_denied("not your job"));
    }
    Ok(record)
}

impl Service for JobService {
    const METHODS: &'static [Method<Self>] = &[
        Method::new(
            "job.submit",
            "Run a command asynchronously in the caller's sandbox; returns a job id",
            &[string("command")],
            Self::submit,
        ),
        Method::new(
            "job.status",
            "Job state plus output once finished",
            &[int("id")],
            |svc: &Self, ctx, args| {
                let (owner, id) = (ctx.require_identity()?.to_string(), args.int(0)? as u64);
                let mut jobs = svc.jobs.lock();
                Ok(Self::job_value(id, owned(&mut jobs, id, &owner)?))
            },
        ),
        Method::new(
            "job.list",
            "The caller's jobs",
            &[],
            |svc: &Self, ctx, _| {
                let owner = ctx.require_identity()?.to_string();
                let mut jobs = svc.jobs.lock();
                let mut out: Vec<Value> = jobs
                    .iter_mut()
                    .filter(|(_, j)| j.owner == owner)
                    .map(|(id, j)| Self::job_value(*id, j))
                    .collect();
                out.sort_by_key(|v| v.get("id").and_then(Value::as_int).unwrap_or(0));
                Ok(Value::Array(out))
            },
        ),
        Method::new(
            "job.wait",
            "Block (bounded) until the job finishes; returns its record",
            &[int("id"), int("timeout_ms")],
            |svc: &Self, ctx, args| {
                let (owner, id) = (ctx.require_identity()?.to_string(), args.int(0)? as u64);
                let timeout_ms = args.int(1)?.clamp(0, 60_000) as u64;
                let mut jobs = svc.jobs.lock();
                let record = owned(&mut jobs, id, &owner)?;
                let value = Self::job_value(id, record);
                if record.outcome.is_none() && timeout_ms > 0 {
                    // Running: the reply is held until the job finishes.
                    let (done, jobs) = (Arc::clone(&record.done), Arc::clone(&svc.jobs));
                    ctx.hold.set(Some(Hold {
                        deadline: Instant::now() + Duration::from_millis(timeout_ms),
                        ready: Box::new(move |waker| done.check(waker, |done| done)),
                        answer: Box::new(move |_| {
                            let mut jobs = jobs.lock();
                            Ok(Self::job_value(id, owned(&mut jobs, id, &owner)?))
                        }),
                    }));
                }
                Ok(value)
            },
        ),
        Method::new(
            "job.remove",
            "Forget a finished job",
            &[int("id")],
            |svc: &Self, ctx, args| {
                let (owner, id) = (ctx.require_identity()?.to_string(), args.int(0)? as u64);
                let mut jobs = svc.jobs.lock();
                if owned(&mut jobs, id, &owner)?.state() != "done" {
                    return Err(Fault::service("job still running"));
                }
                jobs.remove(&id);
                Ok(Value::Bool(true))
            },
        ),
    ];
}

impl JobService {
    fn submit(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let command = args.str(0)?.to_owned();
        let owner = ctx.require_identity()?.to_string();
        let (_, sandbox) = shell::sandbox(ctx, &self.root, &self.user_map)?;

        let mut jobs = self.jobs.lock();
        let live = jobs
            .values_mut()
            .filter(|j| j.owner == owner)
            .map(|j| j.state())
            .filter(|state| *state == "running")
            .count();
        if live >= self.max_per_owner {
            return Err(Fault::service(format!(
                "job limit reached ({} running)",
                self.max_per_owner
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let (thread_command, done) = (command.clone(), Arc::new(Watermark::new(false)));
        let finished = Arc::clone(&done);
        let handle = std::thread::Builder::new()
            .name(format!("clarens-job-{id}"))
            .spawn(move || {
                let outcome = interp::run(&sandbox, &thread_command);
                finished.raise(true);
                outcome
            })
            .map_err(|e| Fault::service(format!("cannot spawn job: {e}")))?;
        jobs.insert(
            id,
            JobRecord {
                owner,
                command,
                submitted: ctx.now,
                outcome: None,
                handle: Some(handle),
                done,
            },
        );
        Ok(Value::Int(id as i64))
    }
}
