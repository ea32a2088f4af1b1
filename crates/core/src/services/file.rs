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
use std::path::{Path, PathBuf};

use clarens_pki::md5::Md5;
use clarens_wire::{Fault, Value};
use parking_lot::Mutex;

use crate::acl::FileAccess;
use crate::paths;
use crate::registry::param::{base64, boolean, int, string};
use crate::registry::{Args, CallContext, Method, Service};

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
}

/// ACL check + resolution of one virtual path under `root`: the canonical
/// path and the real one.
pub(crate) fn authorize(
    ctx: &CallContext<'_>,
    root: &Path,
    virtual_path: &str,
    access: FileAccess,
) -> Result<(String, PathBuf), Fault> {
    let dn = ctx.require_identity()?;
    let illegal = || Fault::bad_params(format!("illegal path {virtual_path:?}"));
    let canonical = paths::canonical(virtual_path).ok_or_else(illegal)?;
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
    let real = paths::resolve(root, virtual_path).ok_or_else(illegal)?;
    Ok((canonical, real))
}

/// `file.read` under `root`; `srm.get` reads a staged file through it.
pub(crate) fn read(
    ctx: &CallContext<'_>,
    root: &Path,
    name: &str,
    offset: i64,
    nbytes: i64,
) -> Result<Value, Fault> {
    if offset < 0 || !(0..=MAX_READ).contains(&nbytes) {
        return Err(Fault::bad_params("offset/nbytes out of range"));
    }
    let (_, real) = authorize(ctx, root, name, FileAccess::Read)?;
    let io = |e| io_fault(name, e);
    let mut file = std::fs::File::open(&real).map_err(io)?;
    // Clamp the buffer to what the file can actually yield from this
    // offset: a short tail read of a 16 MiB-chunked pull must not allocate
    // (and zero) the full chunk size.
    let remaining = file.metadata().map_err(io)?.len();
    let want = (nbytes as u64).min(remaining.saturating_sub(offset as u64)) as usize;
    file.seek(SeekFrom::Start(offset as u64)).map_err(io)?;
    let mut buf = vec![0u8; want];
    let mut filled = 0usize;
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        // A stalled disk must not hold the worker past the request
        // budget: check the deadline between chunks.
        ctx.check_deadline()?;
        match file.read(rest).map_err(io)? {
            0 => break,
            n => filled += n,
        }
    }
    buf.truncate(filled);
    Ok(Value::Bytes(buf))
}

fn io_fault(context: &str, e: std::io::Error) -> Fault {
    match e.kind() {
        std::io::ErrorKind::NotFound => Fault::service(format!("{context}: not found")),
        other => Fault::service(format!("{context}: {other}")),
    }
}

/// `"dir"` or `"file"`.
fn kind(meta: &std::fs::Metadata) -> Value {
    Value::from(if meta.is_dir() { "dir" } else { "file" })
}

impl Service for FileService {
    const METHODS: &'static [Method<Self>] = &[
        Method::new(
            "file.read",
            "Read up to nbytes from a file at offset; returns base64 bytes",
            &[string("name"), int("offset"), int("nbytes")],
            |svc: &Self, ctx, args| read(ctx, &svc.root, args.str(0)?, args.int(1)?, args.int(2)?),
        )
        .idempotent(),
        Method::new(
            "file.ls",
            "Directory listing with types and sizes",
            &[string("dir")],
            Self::ls,
        )
        .idempotent(),
        Method::new(
            "file.stat",
            "File or directory metadata",
            &[string("path")],
            Self::stat,
        )
        .idempotent(),
        Method::new(
            "file.md5",
            "MD5 integrity hash of a file",
            &[string("path")],
            Self::md5,
        )
        .idempotent(),
        Method::new(
            "file.find",
            "Recursively find paths whose name contains pattern",
            &[string("dir"), string("pattern")],
            Self::find,
        )
        .idempotent(),
        Method::new(
            "file.put",
            "Write (or append) bytes to a file",
            &[string("name"), base64("data"), boolean("append")],
            Self::put,
        ),
        Method::new(
            "file.mkdir",
            "Create a directory (and parents)",
            &[string("dir")],
            |svc: &Self, ctx, args| {
                let dir = args.str(0)?;
                let (_, real) = authorize(ctx, &svc.root, dir, FileAccess::Write)?;
                std::fs::create_dir_all(&real).map_err(|e| io_fault(dir, e))?;
                Ok(Value::Bool(true))
            },
        ),
        Method::new(
            "file.rm",
            "Remove a file",
            &[string("path")],
            |svc: &Self, ctx, args| {
                let path = args.str(0)?;
                let (_, real) = authorize(ctx, &svc.root, path, FileAccess::Write)?;
                std::fs::remove_file(&real).map_err(|e| io_fault(path, e))?;
                Ok(Value::Bool(true))
            },
        ),
        Method::new(
            "file.size",
            "File size in bytes",
            &[string("path")],
            |svc: &Self, ctx, args| {
                let path = args.str(0)?;
                let (_, real) = authorize(ctx, &svc.root, path, FileAccess::Read)?;
                let meta = std::fs::metadata(&real).map_err(|e| io_fault(path, e))?;
                Ok(Value::Int(meta.len() as i64))
            },
        )
        .idempotent(),
    ];
}

impl FileService {
    fn ls(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let dir = args.str(0)?;
        let (_, real) = authorize(ctx, &self.root, dir, FileAccess::Read)?;
        let io = |e| io_fault(dir, e);
        let mut entries = Vec::new();
        for entry in std::fs::read_dir(&real).map_err(io)? {
            let entry = entry.map_err(io)?;
            let meta = entry.metadata().map_err(io)?;
            entries.push((entry.file_name().to_string_lossy().into_owned(), meta));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let entries = entries.into_iter().map(|(name, meta)| {
            Value::structure([
                ("name", Value::from(name)),
                ("type", kind(&meta)),
                ("size", Value::Int(meta.len() as i64)),
            ])
        });
        Ok(Value::Array(entries.collect()))
    }

    fn stat(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let path = args.str(0)?;
        let (canonical, real) = authorize(ctx, &self.root, path, FileAccess::Read)?;
        let meta = std::fs::metadata(&real).map_err(|e| io_fault(path, e))?;
        let mtime = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map(|d| d.as_secs() as i64)
            .unwrap_or(0);
        Ok(Value::structure([
            ("path", Value::from(canonical)),
            ("type", kind(&meta)),
            ("size", Value::Int(meta.len() as i64)),
            ("mtime", Value::Int(mtime)),
        ]))
    }

    fn md5(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let path = args.str(0)?;
        let (_, real) = authorize(ctx, &self.root, path, FileAccess::Read)?;
        let mut file = std::fs::File::open(&real).map_err(|e| io_fault(path, e))?;
        // Key the digest cache on the file state *before* hashing; a
        // rewrite bumps mtime or length and misses the cache.
        let key = file.metadata().ok().and_then(|meta| {
            let mtime = meta.modified().ok()?;
            let since = mtime.duration_since(std::time::UNIX_EPOCH).ok()?;
            let canonical = real.canonicalize().ok()?;
            Some((canonical, since.as_secs(), since.subsec_nanos(), meta.len()))
        });
        if let Some(hex) = key
            .as_ref()
            .and_then(|key| self.md5_cache.lock().get(key).cloned())
        {
            return Ok(Value::from(hex));
        }
        let mut hasher = Md5::new();
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            ctx.check_deadline()?;
            match file.read(&mut buf).map_err(|e| io_fault(path, e))? {
                0 => break,
                n => hasher.update(buf.get(..n).unwrap_or_default()),
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

    fn find(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let dir = args.str(0)?;
        let (canonical, real) = authorize(ctx, &self.root, dir, FileAccess::Read)?;
        let mut hits = Vec::new();
        find_recursive(&real, &canonical, args.str(1)?, &mut hits, 0)
            .map_err(|e| io_fault(dir, e))?;
        hits.sort();
        Ok(Value::Array(hits.into_iter().map(Value::from).collect()))
    }

    fn put(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let (name, data, append) = (args.str(0)?, args.bytes(1)?, args.boolean(2)?);
        let (_, real) = authorize(ctx, &self.root, name, FileAccess::Write)?;
        let io = |e| io_fault(name, e);
        if let Some(parent) = real.parent() {
            std::fs::create_dir_all(parent).map_err(io)?;
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(append)
            .write(true)
            .truncate(!append)
            .open(&real)
            .and_then(|mut file| file.write_all(data))
            .map_err(io)?;
        Ok(Value::Int(data.len() as i64))
    }
}

/// Virtual paths under `real` whose name contains `pattern`, 32 levels
/// deep at most (`file.find` and the shell's `find`).
pub(crate) fn find_recursive(
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
