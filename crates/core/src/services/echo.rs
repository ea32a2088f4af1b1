//! The `echo` service: trivial methods for testing and cross-framework
//! benchmarking (the paper's footnote 4 compares "a trivial method" on
//! Globus Toolkit 3 against Clarens; `echo.echo` is that method here).

use clarens_wire::{Fault, Value};

use crate::registry::{params, unhandled, CallContext, MethodInfo, Service};

/// The `echo` service.
pub struct EchoService;

/// The `echo` methods.
pub static METHODS: &[MethodInfo] = &[
    MethodInfo::new(
        "echo.echo",
        "echo.echo(value)",
        "Return the argument unchanged",
        1,
    )
    .idempotent(),
    MethodInfo::new("echo.sum", "echo.sum(a, b)", "Integer addition", 2).idempotent(),
    MethodInfo::new(
        "echo.concat",
        "echo.concat(parts)",
        "Concatenate an array of strings",
        1,
    )
    .idempotent(),
    MethodInfo::new(
        "echo.payload",
        "echo.payload(nbytes)",
        "Return nbytes of deterministic data (bandwidth testing)",
        1,
    )
    .idempotent(),
];

impl Service for EchoService {
    fn methods(&self) -> &'static [MethodInfo] {
        METHODS
    }

    fn call(
        &self,
        _ctx: &CallContext<'_>,
        method: &str,
        params_in: &[Value],
    ) -> Result<Value, Fault> {
        match method {
            "echo.echo" => Ok(params_in[0].clone()),
            "echo.sum" => {
                let a = params::int(params_in, 0, "a")?;
                let b = params::int(params_in, 1, "b")?;
                a.checked_add(b)
                    .map(Value::Int)
                    .ok_or_else(|| Fault::bad_params("integer overflow"))
            }
            "echo.concat" => {
                let parts = params_in[0]
                    .as_array()
                    .ok_or_else(|| Fault::bad_params("parameter 0 must be an array"))?;
                let mut out = String::new();
                for part in parts {
                    out.push_str(
                        part.as_str()
                            .ok_or_else(|| Fault::bad_params("array items must be strings"))?,
                    );
                }
                Ok(Value::from(out))
            }
            "echo.payload" => {
                let n = params::int(params_in, 0, "nbytes")?;
                if !(0..=64 * 1024 * 1024).contains(&n) {
                    return Err(Fault::bad_params("nbytes out of range"));
                }
                let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
                Ok(Value::Bytes(data))
            }
            other => Err(unhandled(other)),
        }
    }
}
