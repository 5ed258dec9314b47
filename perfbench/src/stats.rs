//! Small numeric and output helpers: percentiles, rates, metric names and
//! the result line.

use std::fmt::Write as _;

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks (the "inclusive" method: `q = 0` is the minimum,
/// `q = 1` the maximum). `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// `units` of work per second over `seconds` (`None` unless both are
/// positive).
pub fn rate(units: f64, seconds: f64) -> Option<f64> {
    (units > 0.0 && seconds > 0.0).then(|| units / seconds)
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The benchmark's last output line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest round-trip form: every measured digit.
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process in MB (`VmHWM`), if the kernel
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time consumed so far by this process's live threads, in seconds
/// (the on-CPU field of every `/proc/self/task/*/schedstat`, in ns).
/// Unlike wall time it excludes time the host stole from the vCPU; threads
/// that already exited are not counted, so take deltas across work whose
/// threads outlive it.
pub fn cpu_s() -> f64 {
    // The kernel folds a running thread's time into its counter only at
    // scheduler events; yielding makes the calling thread's reading current.
    std::thread::yield_now();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// Runs a fixed, cache-resident, CPU-bound reference kernel once and
/// returns the CPU seconds it took. The kernel mixes the instruction kinds
/// the workloads spend their time on: scalar f32 multiply-adds over small
/// arrays (CNN training and inference) and a dependent integer hash chain
/// with data-dependent branches (the simulator). Its cost never changes, so
/// its CPU time measures the host's current speed.
pub fn reference_kernel_s() -> f64 {
    const N: usize = 24;
    let start = cpu_s();
    let a: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.0625).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.125).collect();
    let mut c = vec![0f32; N * N];
    for _ in 0..40 {
        for i in 0..N {
            for k in 0..N {
                let aik = std::hint::black_box(a[i * N + k]);
                for j in 0..N {
                    c[i * N + j] = c[i * N + j].mul_add(0.5, aik * b[k * N + j]);
                }
            }
        }
    }
    let mut h = 0x2545_F491_4F6C_DD1D_u64;
    for i in 0..200_000u64 {
        h = mix(h, i);
        if h & 3 == 0 {
            h = h.rotate_left(17) ^ i;
        }
    }
    std::hint::black_box((&c, h));
    cpu_s() - start
}

/// The reference kernel's CPU time on the host the benchmark was built on
/// (2-vCPU VM at 2.1 GHz, median over many runs).
pub const REFERENCE_KERNEL_S: f64 = 0.0035;

/// The host's speed over a run, sampled with the reference kernel between
/// timed operations.
#[derive(Debug, Default)]
pub struct Speed(Vec<f64>);

impl Speed {
    /// Times the reference kernel twice.
    pub fn sample(&mut self) {
        self.0.push(reference_kernel_s());
        self.0.push(reference_kernel_s());
    }

    /// Median CPU seconds of the reference kernel in this run.
    pub fn kernel_s(&self) -> f64 {
        median(&self.0).expect("speed sampled at least once")
    }

    /// The factor that turns CPU seconds measured in this run into
    /// reference-speed seconds: what they would have been had the host run
    /// the kernel in [`REFERENCE_KERNEL_S`]. It cancels the drift of the
    /// host's speed (clock and shared-core contention) that CPU time alone
    /// still carries.
    pub fn scale(&self) -> f64 {
        REFERENCE_KERNEL_S / self.kernel_s()
    }
}

/// splitmix64: derives independent, reproducible values from the seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates over [`mix`]).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert!((percentile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[10.0, 0.0], 0.25), Some(2.5));
    }

    #[test]
    fn rates_need_work_and_time() {
        assert_eq!(rate(100.0, 4.0), Some(25.0));
        assert_eq!(rate(0.0, 4.0), None);
        assert_eq!(rate(5.0, 0.0), None);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in ["setup_s", "noc.flood.router_cycles_per_s", "a-b", "9x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".x", "a b", "a/b", "ä", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "op_p50_ms".into(),
                value: 1.25,
                unit: "ms",
            }],
        );
        let Ok(serde::Value::Object(obj)) = serde_json::parse_value(&line) else {
            panic!("not a JSON object: {line}");
        };
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
    }

    #[test]
    fn speed_scales_by_the_reference_kernel() {
        let speed = Speed(vec![REFERENCE_KERNEL_S * 2.0, REFERENCE_KERNEL_S * 2.0]);
        assert_eq!(speed.scale(), 0.5);
        let mut live = Speed::default();
        live.sample();
        assert!(live.kernel_s() > 0.0 && live.scale().is_finite());
    }

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(10, 7);
        assert_eq!(a, permutation(10, 7));
        assert_ne!(a, permutation(10, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
