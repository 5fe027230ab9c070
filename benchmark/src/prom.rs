//! Scraping the server's `/metrics` listener and reading the result.
//!
//! A small parser for the Prometheus text exposition format (0.0.4) —
//! only what the server emits: `name{k="v",…} value` sample lines and
//! `#` comments — plus label-filtered sums, which is how a per-stage
//! total across shards is read.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// A parsed scrape.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    pub samples: Vec<Sample>,
}

fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let b = text.as_bytes();
    let mut at = 0;
    while at < b.len() {
        let eq = text[at..]
            .find('=')
            .ok_or_else(|| format!("label without '=' in {text:?}"))?
            + at;
        let key = text[at..eq].trim().to_string();
        if b.get(eq + 1) != Some(&b'"') {
            return Err(format!("unquoted label value in {text:?}"));
        }
        let mut value = String::new();
        let mut i = eq + 2;
        loop {
            match b.get(i) {
                None => return Err(format!("unterminated label value in {text:?}")),
                Some(b'"') => break,
                Some(b'\\') => {
                    match b.get(i + 1) {
                        Some(b'n') => value.push('\n'),
                        Some(&c) => value.push(c as char),
                        None => return Err(format!("dangling escape in {text:?}")),
                    }
                    i += 2;
                }
                Some(_) => {
                    // Copy one whole UTF-8 character.
                    let ch = text[i..].chars().next().expect("in bounds");
                    value.push(ch);
                    i += ch.len_utf8();
                }
            }
        }
        out.push((key, value));
        at = i + 1;
        if b.get(at) == Some(&b',') {
            at += 1;
        }
    }
    Ok(out)
}

impl Scrape {
    /// Parses exposition text. Comment and blank lines are skipped; a
    /// malformed sample line is an error (a scrape is all or nothing).
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut samples = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = match line.rfind('}') {
                Some(close) => (&line[..=close], line[close + 1..].trim()),
                None => line
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("sample without value: {line:?}"))?,
            };
            // An optional timestamp may follow the value.
            let value = value.split_whitespace().next().unwrap_or("");
            let value = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v
                    .parse::<f64>()
                    .map_err(|_| format!("bad sample value in {line:?}"))?,
            };
            let (name, labels) = match series.split_once('{') {
                Some((name, rest)) => (
                    name.trim(),
                    parse_labels(rest.strip_suffix('}').unwrap_or(rest))?,
                ),
                None => (series.trim(), Vec::new()),
            };
            if name.is_empty() {
                return Err(format!("sample without a name: {line:?}"));
            }
            samples.push(Sample {
                name: name.to_string(),
                labels,
                value,
            });
        }
        Ok(Scrape { samples })
    }

    /// Sum of every sample called `name` whose labels include all of
    /// `want` — e.g. one stage's `_sum` across all shards. 0 when none.
    pub fn sum(&self, name: &str, want: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|s| {
                s.name == name
                    && want
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|s| s.value)
            .sum()
    }

    /// Largest matching sample (for high-water gauges).
    pub fn max(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .fold(0.0, f64::max)
    }
}

/// Mean of a histogram series between two scrapes, in the series' own
/// unit: `Δ_sum / Δ_count` over the samples matching `want`. `None` when
/// nothing was recorded in between.
pub fn mean_between(
    before: &Scrape,
    after: &Scrape,
    name: &str,
    want: &[(&str, &str)],
) -> Option<f64> {
    let d = |suffix: &str| {
        let n = format!("{name}_{suffix}");
        after.sum(&n, want) - before.sum(&n, want)
    };
    let count = d("count");
    (count > 0.0).then(|| d("sum") / count)
}

/// Counter increase between two scrapes.
pub fn delta(before: &Scrape, after: &Scrape, name: &str, want: &[(&str, &str)]) -> f64 {
    after.sum(name, want) - before.sum(name, want)
}

/// `GET /metrics` from the server's HTTP/1.0 listener.
pub fn scrape(addr: SocketAddr) -> std::io::Result<Scrape> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("metrics reply has no header/body split"))?;
    if !head.starts_with("HTTP/1.0 200") && !head.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::other(format!(
            "metrics scrape failed: {}",
            head.lines().next().unwrap_or("")
        )));
    }
    Scrape::parse(body).map_err(std::io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP slimio_write_stage_seconds Write-path stage latency per group-commit batch
# TYPE slimio_write_stage_seconds histogram
slimio_write_stage_seconds_bucket{stage=\"queue\",shard=\"0\",le=\"0.000001\"} 3
slimio_write_stage_seconds_bucket{stage=\"queue\",shard=\"0\",le=\"+Inf\"} 4
slimio_write_stage_seconds_sum{stage=\"queue\",shard=\"0\"} 0.5
slimio_write_stage_seconds_count{stage=\"queue\",shard=\"0\"} 4
slimio_write_stage_seconds_sum{stage=\"queue\",shard=\"1\"} 0.25
slimio_write_stage_seconds_count{stage=\"queue\",shard=\"1\"} 1
slimio_write_stage_seconds_sum{stage=\"reply\",shard=\"0\"} 7
slimio_write_stage_seconds_count{stage=\"reply\",shard=\"0\"} 7

# TYPE slimio_device_waf gauge
slimio_device_waf 1.00
slimio_shard_queue_hwm{shard=\"0\"} 17
slimio_shard_queue_hwm{shard=\"1\"} 31
slimio_ops_total 12345 1700000000
weird{msg=\"a \\\"quoted\\\" v\\\\, x=1\",k=\"é\"} 2
";

    #[test]
    fn parses_samples_labels_and_values() {
        let s = Scrape::parse(TEXT).unwrap();
        assert_eq!(s.samples.len(), 13);
        assert_eq!(s.samples[1].value, 4.0);
        assert_eq!(
            s.samples[1].labels,
            [("stage", "queue"), ("shard", "0"), ("le", "+Inf")]
                .map(|(k, v)| (k.to_string(), v.to_string()))
        );
        assert_eq!(s.sum("slimio_device_waf", &[]), 1.0);
        assert_eq!(s.sum("slimio_ops_total", &[]), 12345.0, "timestamp ignored");
        let weird = s.samples.last().unwrap();
        assert_eq!(weird.labels[0].1, "a \"quoted\" v\\, x=1");
        assert_eq!(weird.labels[1].1, "é");
        assert_eq!(weird.value, 2.0);
    }

    #[test]
    fn sums_by_label_across_shards() {
        let s = Scrape::parse(TEXT).unwrap();
        let name = "slimio_write_stage_seconds_sum";
        assert_eq!(s.sum(name, &[("stage", "queue")]), 0.75);
        assert_eq!(s.sum(name, &[("stage", "queue"), ("shard", "1")]), 0.25);
        assert_eq!(s.sum(name, &[("stage", "reply")]), 7.0);
        assert_eq!(s.sum(name, &[("stage", "nope")]), 0.0);
        assert_eq!(s.sum(name, &[]), 7.75);
        assert_eq!(s.max("slimio_shard_queue_hwm"), 31.0);
    }

    #[test]
    fn means_and_deltas_between_scrapes() {
        let before =
            Scrape::parse("h_sum{stage=\"q\"} 1\nh_count{stage=\"q\"} 10\nc_total 5\n").unwrap();
        let after =
            Scrape::parse("h_sum{stage=\"q\"} 4\nh_count{stage=\"q\"} 16\nc_total 9\n").unwrap();
        assert_eq!(
            mean_between(&before, &after, "h", &[("stage", "q")]),
            Some(0.5)
        );
        assert_eq!(mean_between(&after, &after, "h", &[]), None);
        assert_eq!(delta(&before, &after, "c_total", &[]), 4.0);
    }

    #[test]
    fn malformed_lines_fail_the_whole_scrape() {
        for bad in [
            "name_only\n",
            "x{a=b} 1\n",
            "x{a=\"b} 1\n",
            "x 1.2.3\n",
            "{a=\"b\"} 1\n",
        ] {
            assert!(Scrape::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
