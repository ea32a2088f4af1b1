//! What a run prints: one `metric` line per value for people and the
//! suite script, then the result object the benchmark driver reads.

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Operations or iterations the value summarises.
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        }
    }
}

/// Print one `metric <workload> <name> <value> <unit> <samples>` line per
/// metric. Errors if a value is not a finite number.
pub fn lines(workload: &str, metrics: &[Metric]) -> Result<(), String> {
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        println!(
            "metric {workload} {} {} {} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    Ok(())
}

/// Print the `metric` lines and, last, the result object holding exactly
/// these metrics.
pub fn print(
    workload: &str,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<(), String> {
    lines(workload, metrics)?;
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
    Ok(())
}
