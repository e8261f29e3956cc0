//! The result line: `{"correct", "attempted", "failed", "metrics"}` as
//! one JSON object, plus a parser for it so the format is tested by a
//! round trip.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit, e.g. `ms`, `MiB`, `count`.
    pub unit: String,
}

/// A run's result: correctness, failure share, and its metrics by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Whether every output check passed and the run was valid.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (mismatch, shed, refused, never acked...).
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// then at most 64 letters, digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

impl Outcome {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// On an invalid name or unit, a repeated name, or a non-finite
    /// value — each a bug in the benchmark, not in the program measured.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        assert!(valid_unit(unit), "invalid unit `{unit}` for `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        let fresh = self
            .metrics
            .insert(
                name.to_owned(),
                Metric {
                    value,
                    unit: unit.to_owned(),
                },
            )
            .is_none();
        assert!(fresh, "metric `{name}` reported twice");
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest text that reads back as the same
            // f64, always with a decimal point or exponent.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a result line written by [`Outcome::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first thing that does not fit the format.
    pub fn parse(text: &str) -> Result<Outcome, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let Json::Object(top) = p.value()? else {
            return Err("result is not an object".to_owned());
        };
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let count = |key: &str| match top[key] {
            Json::Number(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
            _ => Err(format!("`{key}` is not a whole number")),
        };
        let Json::Bool(correct) = top["correct"] else {
            return Err("`correct` is not a boolean".to_owned());
        };
        let Json::Object(raw) = &top["metrics"] else {
            return Err("`metrics` is not an object".to_owned());
        };
        let mut outcome = Outcome {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: BTreeMap::new(),
        };
        for (name, m) in raw {
            let Json::Object(m) = m else {
                return Err(format!("metric `{name}` is not an object"));
            };
            match (m.get("value"), m.get("unit"), m.len()) {
                (Some(Json::Number(value)), Some(Json::String(unit)), 2)
                    if valid_name(name) && valid_unit(unit) =>
                {
                    outcome.metrics.insert(
                        name.clone(),
                        Metric {
                            value: *value,
                            unit: unit.clone(),
                        },
                    );
                }
                _ => return Err(format!("metric `{name}` is malformed")),
            }
        }
        Ok(outcome)
    }
}

/// The JSON subset the result line uses: no escapes inside strings, no
/// arrays, no null.
#[derive(Debug)]
enum Json {
    Bool(bool),
    Number(f64),
    String(String),
    Object(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at {}", byte as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    self.pos += 1;
                    return String::from_utf8(self.bytes[start..self.pos - 1].to_vec())
                        .map_err(|e| e.to_string());
                }
                b'\\' => return Err(format!("escape at {}", self.pos)),
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".to_owned())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let rest = &self.bytes[self.pos..];
        if rest.starts_with(b"true") {
            self.pos += 4;
            return Ok(Json::Bool(true));
        }
        if rest.starts_with(b"false") {
            self.pos += 5;
            return Ok(Json::Bool(false));
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::String),
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    let value = self.value()?;
                    if map.insert(key.clone(), value).is_some() {
                        return Err(format!("duplicate key `{key}`"));
                    }
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(map));
                        }
                        _ => return Err(format!("expected `,` or `}}` at {}", self.pos)),
                    }
                }
            }
            Some(_) => {
                let len = rest
                    .iter()
                    .take_while(|b| {
                        b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                    })
                    .count();
                let text = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
                let n: f64 = text
                    .parse()
                    .map_err(|_| format!("bad number `{text}` at {}", self.pos))?;
                self.pos += len;
                Ok(Json::Number(n))
            }
            None => Err("unexpected end".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in ["setup_s", "logs.parse_ns_per_line", "0x", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn units_follow_the_contract() {
        for ok in ["ms", "s", "1/s", "count", "MiB", "MB/s", "%", "ns"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seventeen-chars-x", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn put_rejects_bad_names() {
        Outcome::default().put("bad name", 1.0, "ms");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn put_rejects_repeats() {
        let mut o = Outcome::default();
        o.put("a", 1.0, "ms");
        o.put("a", 2.0, "ms");
    }

    #[test]
    fn result_line_round_trips() {
        let mut o = Outcome {
            correct: true,
            attempted: 3911,
            failed: 0,
            ..Outcome::default()
        };
        o.put("latency_ms", 1.2034, "ms");
        o.put("setup_s", 0.812_734_567_891_234, "s");
        o.put("logs.lines", 2_371_285.0, "count");
        o.put("tiny", 1.5e-9, "s");
        o.put("negative", -3.25, "ms");
        let line = o.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3911, \"failed\": 0,"));
        assert_eq!(Outcome::parse(&line).unwrap(), o);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let bad = [
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0}",
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1}}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x",
        ];
        for line in bad {
            assert!(Outcome::parse(line).is_err(), "{line}");
        }
    }
}
