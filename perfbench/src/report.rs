//! The result record: correctness tally, named metrics with units, and
//! the human-readable notes printed above the final JSON line.

/// A run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose output was checked (jobs, `run` calls, traced reps).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    /// Tally one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Failed or incorrect operations ÷ attempted operations.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The names `expected` lists that this report lacks, and any value
    /// that is not a finite number.
    pub fn problems(&self, expected: &[&str]) -> Vec<String> {
        let mut out: Vec<String> = expected
            .iter()
            .filter(|n| !self.metrics.iter().any(|(m, _, _)| m == *n))
            .map(|n| format!("missing metric {n}"))
            .collect();
        out.extend(
            self.metrics
                .iter()
                .filter(|(_, v, _)| !v.is_finite())
                .map(|(n, v, _)| format!("metric {n} is {v}")),
        );
        out
    }

    /// Human-readable lines: every metric by name with its unit, then
    /// the notes.
    pub fn text_lines(&self) -> Vec<String> {
        let mut out: Vec<String> =
            self.metrics.iter().map(|(n, v, u)| format!("# {n:<32} {v:>16.6} {u}")).collect();
        out.push(format!(
            "# {:<32} {:>16.6} 1  ({} failed of {} attempted)",
            "failed_share",
            self.failed_share(),
            self.failed,
            self.attempted
        ));
        out.extend(self.notes.iter().map(|n| format!("# note: {n}")));
        out
    }

    /// The final JSON line, restricted to the metrics named in `keep`
    /// (in that order).
    pub fn result_line(&self, keep: &[&str]) -> String {
        let metrics: Vec<String> = keep
            .iter()
            .filter_map(|k| self.metrics.iter().find(|(n, _, _)| n == k))
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.check(true);
        r.check(true);
        r.metric("latency_ms", 1.25, "ms");
        r.metric("extra", 2.0, "1");
        let line = r.result_line(&["latency_ms"]);
        let j = foundation::json::Json::parse(&line).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":2,\"failed\":0,\
             \"metrics\":{\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        assert_eq!(j.get("attempted").and_then(|a| a.as_f64()), Some(2.0));
        assert!(r.problems(&["latency_ms"]).is_empty());
        assert_eq!(r.problems(&["latency_ms", "setup_s"]), vec!["missing metric setup_s"]);
    }

    #[test]
    fn failures_make_the_record_incorrect() {
        let mut r = Report::default();
        r.check(true);
        r.check(false);
        assert_eq!(r.failed_share(), 0.5);
        assert!(r.result_line(&[]).starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"));
    }
}
