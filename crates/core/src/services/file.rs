//! The remote file access service (paper §2.3).
//!
//! "Clarens serves files in two different ways: in response to standard
//! HTTP GET requests, as well as via a `file.read()` service method. ...
//! The `file.read()` method takes a filename, an offset and the number of
//! bytes to return to the client." Plus `file.ls()`, `file.stat()`,
//! `file.md5()` and `file.find` (referenced in §2.5). All paths are
//! virtual (under the configured root) and every method is gated by the
//! hierarchical file ACLs with their read/write fields.

use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use clarens_pki::md5::Md5;
use clarens_wire::{Fault, Value};
use parking_lot::Mutex;

use crate::acl::FileAccess;
use crate::paths;
use crate::registry::{params, unhandled, CallContext, MethodInfo, Service};

/// Cap on a single `file.read` (larger transfers loop, exactly like the
/// paper's chunked client pulls).
pub const MAX_READ: i64 = 16 * 1024 * 1024;

/// Bound on cached `file.md5` digests; the cache is cleared wholesale when
/// it fills (digest entries are tiny, recomputation is the expensive part).
const MD5_CACHE_CAP: usize = 1024;

/// Cache key for one file state: canonical real path plus the metadata
/// that changes whenever the content does (mtime to nanosecond precision,
/// and length to catch same-mtime rewrites).
type Md5Key = (PathBuf, u64, u32, u64);

/// The `file` service.
pub struct FileService {
    root: PathBuf,
    /// `file.md5` digests keyed by `(canonical path, mtime, len)`. Large
    /// files are re-hashed end-to-end on every call otherwise; integrity
    /// checks after a transfer loop hit the same unchanged file repeatedly.
    md5_cache: Mutex<HashMap<Md5Key, String>>,
}

impl FileService {
    /// Serve files under `root`.
    pub fn new(root: PathBuf) -> Self {
        FileService {
            root,
            md5_cache: Mutex::new(HashMap::new()),
        }
    }

    /// ACL check + resolution for one virtual path.
    fn authorize(
        &self,
        ctx: &CallContext<'_>,
        virtual_path: &str,
        access: FileAccess,
    ) -> Result<(String, PathBuf), Fault> {
        let dn = ctx.require_identity()?;
        let canonical = paths::canonical(virtual_path)
            .ok_or_else(|| Fault::bad_params(format!("illegal path {virtual_path:?}")))?;
        if !ctx
            .core
            .acl
            .check_file(&canonical, access, dn, &ctx.core.vo)
        {
            return Err(Fault::access_denied(format!(
                "no {} access to {canonical}",
                match access {
                    FileAccess::Read => "read",
                    FileAccess::Write => "write",
                }
            )));
        }
        let real = paths::resolve(&self.root, virtual_path)
            .ok_or_else(|| Fault::bad_params(format!("illegal path {virtual_path:?}")))?;
        Ok((canonical, real))
    }
}

fn io_fault(context: &str, e: std::io::Error) -> Fault {
    match e.kind() {
        std::io::ErrorKind::NotFound => Fault::service(format!("{context}: not found")),
        other => Fault::service(format!("{context}: {other}")),
    }
}

/// The `file` methods.
pub static METHODS: &[MethodInfo] = &[
    MethodInfo::new(
        "file.read",
        "file.read(name, offset, nbytes)",
        "Read up to nbytes from a file at offset; returns base64 bytes",
        3,
    )
    .idempotent(),
    MethodInfo::new(
        "file.ls",
        "file.ls(dir)",
        "Directory listing with types and sizes",
        1,
    )
    .idempotent(),
    MethodInfo::new(
        "file.stat",
        "file.stat(path)",
        "File or directory metadata",
        1,
    )
    .idempotent(),
    MethodInfo::new(
        "file.md5",
        "file.md5(path)",
        "MD5 integrity hash of a file",
        1,
    )
    .idempotent(),
    MethodInfo::new(
        "file.find",
        "file.find(dir, pattern)",
        "Recursively find paths whose name contains pattern",
        2,
    )
    .idempotent(),
    MethodInfo::new(
        "file.put",
        "file.put(name, data, append)",
        "Write (or append) bytes to a file",
        3,
    ),
    MethodInfo::new(
        "file.mkdir",
        "file.mkdir(dir)",
        "Create a directory (and parents)",
        1,
    ),
    MethodInfo::new("file.rm", "file.rm(path)", "Remove a file", 1),
    MethodInfo::new("file.size", "file.size(path)", "File size in bytes", 1).idempotent(),
];

impl Service for FileService {
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
            "file.read" => {
                let name = params::string(params_in, 0, "name")?;
                let offset = params::int(params_in, 1, "offset")?;
                let nbytes = params::int(params_in, 2, "nbytes")?;
                if offset < 0 || !(0..=MAX_READ).contains(&nbytes) {
                    return Err(Fault::bad_params("offset/nbytes out of range"));
                }
                let (_, real) = self.authorize(ctx, &name, FileAccess::Read)?;
                clarens_faults::check_io(clarens_faults::sites::FILE_OPEN)
                    .map_err(|e| io_fault(&name, e))?;
                let mut file = std::fs::File::open(&real).map_err(|e| io_fault(&name, e))?;
                // Clamp the buffer to what the file can actually yield from
                // this offset: a short tail read of a 16 MiB-chunked pull
                // must not allocate (and zero) the full chunk size.
                let remaining = file
                    .metadata()
                    .map_err(|e| io_fault(&name, e))?
                    .len()
                    .saturating_sub(offset as u64);
                let want = (nbytes as u64).min(remaining) as usize;
                file.seek(SeekFrom::Start(offset as u64))
                    .map_err(|e| io_fault(&name, e))?;
                let mut buf = vec![0u8; want];
                let mut filled = 0usize;
                while filled < buf.len() {
                    // A stalled disk must not hold the worker past the
                    // request budget: check the deadline between chunks.
                    ctx.check_deadline()?;
                    clarens_faults::check_io(clarens_faults::sites::FILE_READ)
                        .map_err(|e| io_fault(&name, e))?;
                    match file.read(&mut buf[filled..]) {
                        Ok(0) => break,
                        Ok(n) => filled += n,
                        Err(e) => return Err(io_fault(&name, e)),
                    }
                }
                buf.truncate(filled);
                Ok(Value::Bytes(buf))
            }
            "file.ls" => {
                let dir = params::string(params_in, 0, "dir")?;
                let (_, real) = self.authorize(ctx, &dir, FileAccess::Read)?;
                let mut entries = Vec::new();
                let read_dir = std::fs::read_dir(&real).map_err(|e| io_fault(&dir, e))?;
                for entry in read_dir {
                    let entry = entry.map_err(|e| io_fault(&dir, e))?;
                    let meta = entry.metadata().map_err(|e| io_fault(&dir, e))?;
                    entries.push(Value::structure([
                        (
                            "name",
                            Value::from(entry.file_name().to_string_lossy().into_owned()),
                        ),
                        (
                            "type",
                            Value::from(if meta.is_dir() { "dir" } else { "file" }),
                        ),
                        ("size", Value::Int(meta.len() as i64)),
                    ]));
                }
                entries.sort_by(|a, b| {
                    let name =
                        |v: &Value| v.get("name").and_then(|n| n.as_str().map(str::to_owned));
                    name(a).cmp(&name(b))
                });
                Ok(Value::Array(entries))
            }
            "file.stat" => {
                let path = params::string(params_in, 0, "path")?;
                let (canonical, real) = self.authorize(ctx, &path, FileAccess::Read)?;
                let meta = std::fs::metadata(&real).map_err(|e| io_fault(&path, e))?;
                let mtime = meta
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                    .map(|d| d.as_secs() as i64)
                    .unwrap_or(0);
                Ok(Value::structure([
                    ("path", Value::from(canonical)),
                    (
                        "type",
                        Value::from(if meta.is_dir() { "dir" } else { "file" }),
                    ),
                    ("size", Value::Int(meta.len() as i64)),
                    ("mtime", Value::Int(mtime)),
                ]))
            }
            "file.md5" => {
                let path = params::string(params_in, 0, "path")?;
                let (_, real) = self.authorize(ctx, &path, FileAccess::Read)?;
                let mut file = std::fs::File::open(&real).map_err(|e| io_fault(&path, e))?;
                // Key the digest cache on the file state *before* hashing;
                // a rewrite bumps mtime or length and misses the cache.
                let key = file.metadata().ok().and_then(|meta| {
                    let mtime = meta.modified().ok()?;
                    let since = mtime.duration_since(std::time::UNIX_EPOCH).ok()?;
                    let canonical = real.canonicalize().ok()?;
                    Some((canonical, since.as_secs(), since.subsec_nanos(), meta.len()))
                });
                if let Some(key) = &key {
                    if let Some(hex) = self.md5_cache.lock().get(key) {
                        return Ok(Value::from(hex.clone()));
                    }
                }
                let mut hasher = Md5::new();
                let mut buf = vec![0u8; 64 * 1024];
                loop {
                    ctx.check_deadline()?;
                    match file.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => hasher.update(&buf[..n]),
                        Err(e) => return Err(io_fault(&path, e)),
                    }
                }
                let hex = clarens_pki::sha256::to_hex(&hasher.finalize());
                if let Some(key) = key {
                    let mut cache = self.md5_cache.lock();
                    if cache.len() >= MD5_CACHE_CAP {
                        cache.clear();
                    }
                    cache.insert(key, hex.clone());
                }
                Ok(Value::from(hex))
            }
            "file.find" => {
                let dir = params::string(params_in, 0, "dir")?;
                let pattern = params::string(params_in, 1, "pattern")?;
                let (canonical, real) = self.authorize(ctx, &dir, FileAccess::Read)?;
                let mut hits = Vec::new();
                find_recursive(&real, &canonical, &pattern, &mut hits, 0)
                    .map_err(|e| io_fault(&dir, e))?;
                hits.sort();
                Ok(Value::Array(hits.into_iter().map(Value::from).collect()))
            }
            "file.put" => {
                let name = params::string(params_in, 0, "name")?;
                let data = params::bytes(params_in, 1, "data")?;
                let append = params_in[2]
                    .as_bool()
                    .ok_or_else(|| Fault::bad_params("parameter 2 (append) must be a boolean"))?;
                let (_, real) = self.authorize(ctx, &name, FileAccess::Write)?;
                if let Some(parent) = real.parent() {
                    std::fs::create_dir_all(parent).map_err(|e| io_fault(&name, e))?;
                }
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(append)
                    .write(true)
                    .truncate(!append)
                    .open(&real)
                    .map_err(|e| io_fault(&name, e))?;
                file.write_all(&data).map_err(|e| io_fault(&name, e))?;
                Ok(Value::Int(data.len() as i64))
            }
            "file.mkdir" => {
                let dir = params::string(params_in, 0, "dir")?;
                let (_, real) = self.authorize(ctx, &dir, FileAccess::Write)?;
                std::fs::create_dir_all(&real).map_err(|e| io_fault(&dir, e))?;
                Ok(Value::Bool(true))
            }
            "file.rm" => {
                let path = params::string(params_in, 0, "path")?;
                let (_, real) = self.authorize(ctx, &path, FileAccess::Write)?;
                std::fs::remove_file(&real).map_err(|e| io_fault(&path, e))?;
                Ok(Value::Bool(true))
            }
            "file.size" => {
                let path = params::string(params_in, 0, "path")?;
                let (_, real) = self.authorize(ctx, &path, FileAccess::Read)?;
                let meta = std::fs::metadata(&real).map_err(|e| io_fault(&path, e))?;
                Ok(Value::Int(meta.len() as i64))
            }
            other => Err(unhandled(other)),
        }
    }
}

fn find_recursive(
    real: &std::path::Path,
    virtual_prefix: &str,
    pattern: &str,
    hits: &mut Vec<String>,
    depth: usize,
) -> std::io::Result<()> {
    if depth > 32 {
        return Ok(()); // bounded recursion
    }
    for entry in std::fs::read_dir(real)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let virtual_path = if virtual_prefix == "/" {
            format!("/{name}")
        } else {
            format!("{virtual_prefix}/{name}")
        };
        let file_type = entry.file_type()?;
        if name.contains(pattern) {
            hits.push(virtual_path.clone());
        }
        if file_type.is_dir() {
            find_recursive(&entry.path(), &virtual_path, pattern, hits, depth + 1)?;
        }
    }
    Ok(())
}
