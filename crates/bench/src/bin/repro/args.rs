//! The one command line every experiment shares.

use std::time::Duration;

/// What `repro` prints, with exit status 2, when its command line does not
/// parse.
pub const USAGE: &str = "usage: repro [fig4|gt3|discovery|chaos|federation|failover|fuzz|all] \
     [--seed N] [--quick] [--secs S] [--target NAME]   (REPRO_POINT_SECS=S scales each point)";

/// Parsed command line. Every flag is accepted by every experiment; one
/// that an experiment has no use for is ignored by it.
#[derive(Debug, PartialEq)]
pub struct Args {
    /// The experiment to run (`all` when none is named).
    pub experiment: String,
    /// `--seed N`: the drills' schedule seed, the fuzzer's corpus seed.
    pub seed: Option<u64>,
    /// `--quick`: the CI-sized variant of `federation` and `failover`.
    pub quick: bool,
    /// `--secs S`: the fuzzer's total budget.
    pub secs: Option<Duration>,
    /// `--target NAME`: run one fuzz target instead of all.
    pub target: Option<String>,
    /// Time budget per measurement point (`$REPRO_POINT_SECS`, default 1 s).
    pub point: Duration,
}

/// A positive, finite number of seconds.
fn seconds(what: &str, text: &str) -> Result<Duration, String> {
    match text.parse::<f64>() {
        Ok(secs) if secs > 0.0 && secs.is_finite() => Ok(Duration::from_secs_f64(secs)),
        _ => Err(format!(
            "{what}: {text:?} is not a positive number of seconds"
        )),
    }
}

impl Args {
    /// Parse the arguments after the program name, and the value of
    /// `$REPRO_POINT_SECS` if set. A flag that is unknown, has no value or
    /// has one that does not parse is an error: a drill must never fall
    /// back to its default seed because CI misspelt one.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        point_secs: Option<String>,
    ) -> Result<Args, String> {
        let mut argv = argv.into_iter().peekable();
        let mut args = Args {
            experiment: argv
                .next_if(|first| !first.starts_with("--"))
                .unwrap_or_else(|| "all".to_string()),
            seed: None,
            quick: false,
            secs: None,
            target: None,
            point: match point_secs {
                Some(text) => seconds("REPRO_POINT_SECS", &text)?,
                None => Duration::from_secs(1),
            },
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => args.quick = true,
                "--seed" => {
                    let text = value()?;
                    let seed = text.parse().map_err(|_| format!("bad --seed {text:?}"))?;
                    args.seed = Some(seed);
                }
                "--secs" => args.secs = Some(seconds("--secs", &value()?)?),
                "--target" => args.target = Some(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|a| a.to_string()), None)
    }

    #[test]
    fn flags_parse_in_any_order() {
        let args = parse(&["failover", "--quick", "--seed", "3"]).unwrap();
        assert_eq!(args.experiment, "failover");
        assert_eq!((args.seed, args.quick), (Some(3), true));
        assert_eq!(args.point, Duration::from_secs(1));

        let args = parse(&["fuzz", "--target", "wal-frames", "--secs", "2.5"]).unwrap();
        assert_eq!(args.target.as_deref(), Some("wal-frames"));
        assert_eq!(args.secs, Some(Duration::from_millis(2500)));
        assert_eq!(args.seed, None);

        assert_eq!(parse(&[]).unwrap().experiment, "all");
        let scaled = Args::parse(["fig4".to_string()], Some("0.25".into())).unwrap();
        assert_eq!(scaled.point, Duration::from_millis(250));
    }

    /// A typo must stop the run, not re-run the default seed.
    #[test]
    fn malformed_values_are_errors() {
        for argv in [
            &["chaos", "--seed", "two"][..],
            &["chaos", "--seed", "-1"],
            &["chaos", "--seed"],
            &["fuzz", "--secs", "0"],
            &["fuzz", "--secs", "soon"],
            &["fuzz", "--target"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} parsed");
        }
        for point in ["", "fast", "-1", "inf"] {
            assert!(Args::parse(["fig4".to_string()], Some(point.into())).is_err());
        }
    }

    #[test]
    fn unknown_flags_are_errors() {
        for argv in [
            &["chaos", "--sed", "2"][..],
            &["chaos", "2"],
            &["--seeds", "2"],
            &["failover", "--quick=true"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} parsed");
        }
    }
}
