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

use parking_lot::Mutex;

use clarens_wire::{Fault, Value};

use crate::registry::{params, unhandled, CallContext, MethodInfo, Service};
use crate::services::shell::{interp, UserMap};

/// One submitted job.
struct JobRecord {
    owner: String,
    command: String,
    submitted: i64,
    /// Populated when the job finishes.
    outcome: Option<interp::Outcome>,
    handle: Option<std::thread::JoinHandle<interp::Outcome>>,
}

impl JobRecord {
    fn state(&mut self) -> &'static str {
        if self.outcome.is_some() {
            return "done";
        }
        if let Some(handle) = &self.handle {
            if handle.is_finished() {
                let handle = self.handle.take().unwrap();
                self.outcome = Some(handle.join().unwrap_or_else(|_| interp::Outcome {
                    stdout: String::new(),
                    stderr: "job thread panicked".into(),
                    status: 1,
                }));
                return "done";
            }
            return "running";
        }
        "done"
    }
}

/// The `job` service.
pub struct JobService {
    root: PathBuf,
    user_map: UserMap,
    jobs: Mutex<HashMap<u64, JobRecord>>,
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
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            max_per_owner: 16,
        }
    }

    fn sandbox_for(&self, ctx: &CallContext<'_>) -> Result<PathBuf, Fault> {
        let dn = ctx.require_identity()?;
        let user = self
            .user_map
            .map(dn, &ctx.core.vo)
            .ok_or_else(|| Fault::access_denied(format!("no .clarens_user_map entry for {dn}")))?
            .to_owned();
        let sandbox = self.root.join(user);
        std::fs::create_dir_all(&sandbox)
            .map_err(|e| Fault::service(format!("cannot create sandbox: {e}")))?;
        Ok(sandbox)
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

/// The `job` methods.
pub static METHODS: &[MethodInfo] = &[
    MethodInfo::new(
        "job.submit",
        "job.submit(command)",
        "Run a command asynchronously in the caller's sandbox; returns a job id",
        1,
    ),
    MethodInfo::new(
        "job.status",
        "job.status(id)",
        "Job state plus output once finished",
        1,
    ),
    MethodInfo::new("job.list", "job.list()", "The caller's jobs", 0),
    MethodInfo::new(
        "job.wait",
        "job.wait(id, timeout_ms)",
        "Block (bounded) until the job finishes; returns its record",
        2,
    ),
    MethodInfo::new("job.remove", "job.remove(id)", "Forget a finished job", 1),
];

impl Service for JobService {
    fn methods(&self) -> &'static [MethodInfo] {
        METHODS
    }

    fn call(
        &self,
        ctx: &CallContext<'_>,
        method: &str,
        params_in: &[Value],
    ) -> Result<Value, Fault> {
        match method {
            "job.submit" => {
                let command = params::string(params_in, 0, "command")?;
                let owner = ctx.require_identity()?.to_string();
                let sandbox = self.sandbox_for(ctx)?;

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
                let thread_command = command.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("clarens-job-{id}"))
                    .spawn(move || interp::run(&sandbox, &thread_command))
                    .map_err(|e| Fault::service(format!("cannot spawn job: {e}")))?;
                jobs.insert(
                    id,
                    JobRecord {
                        owner,
                        command,
                        submitted: ctx.now,
                        outcome: None,
                        handle: Some(handle),
                    },
                );
                Ok(Value::Int(id as i64))
            }
            "job.status" | "job.wait" | "job.remove" => {
                let owner = ctx.require_identity()?.to_string();
                let id = params::int(params_in, 0, "id")? as u64;

                if method == "job.wait" {
                    let timeout_ms = params::int(params_in, 1, "timeout_ms")?.clamp(0, 60_000);
                    let deadline = std::time::Instant::now()
                        + std::time::Duration::from_millis(timeout_ms as u64);
                    loop {
                        {
                            let mut jobs = self.jobs.lock();
                            let record = jobs
                                .get_mut(&id)
                                .ok_or_else(|| Fault::service(format!("no job {id}")))?;
                            if record.owner != owner {
                                return Err(Fault::access_denied("not your job"));
                            }
                            if record.state() == "done" {
                                return Ok(Self::job_value(id, record));
                            }
                        }
                        if std::time::Instant::now() >= deadline {
                            let mut jobs = self.jobs.lock();
                            let record = jobs.get_mut(&id).unwrap();
                            return Ok(Self::job_value(id, record));
                        }
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                }

                let mut jobs = self.jobs.lock();
                let record = jobs
                    .get_mut(&id)
                    .ok_or_else(|| Fault::service(format!("no job {id}")))?;
                if record.owner != owner {
                    return Err(Fault::access_denied("not your job"));
                }
                if method == "job.remove" {
                    if record.state() != "done" {
                        return Err(Fault::service("job still running"));
                    }
                    jobs.remove(&id);
                    return Ok(Value::Bool(true));
                }
                Ok(Self::job_value(id, record))
            }
            "job.list" => {
                let owner = ctx.require_identity()?.to_string();
                let mut jobs = self.jobs.lock();
                let mut out: Vec<Value> = jobs
                    .iter_mut()
                    .filter(|(_, j)| j.owner == owner)
                    .map(|(id, j)| Self::job_value(*id, j))
                    .collect();
                out.sort_by_key(|v| v.get("id").and_then(Value::as_int).unwrap_or(0));
                Ok(Value::Array(out))
            }
            other => Err(unhandled(other)),
        }
    }
}
