//! Minimal JSON-lines emission for machine-readable benchmark records.
//!
//! `repro --json <path>` makes every participating experiment append one
//! JSON object per measurement to `<path>` (JSON lines: independent
//! objects separated by newlines, so reruns append and partial files stay
//! parseable). Records are flat objects with an `"experiment"`
//! discriminator plus numeric fields (`n`, `m`, `threads`, `ms`,
//! `peak_bytes`, `rate_per_s`, `p99_us`, ...); `BENCH_serve.json` at the
//! repository root is one such file.
//!
//! Hand-rolled on purpose: the workspace has no serde (no registry
//! access), records are flat, and the writer is ~60 lines. Non-finite
//! floats encode as `null` (JSON has no NaN/Inf).

use std::io::{self, Write};
use std::path::Path;

/// One flat JSON object, field order preserved.
#[derive(Clone, Debug)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

#[derive(Clone, Debug)]
enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Record {
    /// Start a record with its `"experiment"` discriminator.
    pub fn new(experiment: &str) -> Self {
        Record {
            fields: vec![("experiment".into(), Value::Str(experiment.into()))],
        }
    }

    /// Append an unsigned integer field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        self.fields.push((key.into(), Value::U64(v)));
        self
    }

    /// Append a signed integer field.
    pub fn i64(mut self, key: &str, v: i64) -> Self {
        self.fields.push((key.into(), Value::I64(v)));
        self
    }

    /// Append a float field (`null` if non-finite).
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        self.fields.push((key.into(), Value::F64(v)));
        self
    }

    /// Append a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.fields.push((key.into(), Value::Str(v.into())));
        self
    }

    /// Encode as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape(k, &mut out);
            out.push(':');
            match v {
                Value::U64(x) => out.push_str(&x.to_string()),
                Value::I64(x) => out.push_str(&x.to_string()),
                Value::F64(x) if x.is_finite() => out.push_str(&format!("{x}")),
                Value::F64(_) => out.push_str("null"),
                Value::Str(s) => escape(s, &mut out),
            }
        }
        out.push('}');
        out
    }
}

/// Append `records` to `path` as JSON lines (creates the file if absent).
pub fn append_records(path: &Path, records: &[Record]) -> io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut buf = String::new();
    for r in records {
        buf.push_str(&r.to_json());
        buf.push('\n');
    }
    f.write_all(buf.as_bytes())?;
    f.flush()
}

/// Emit `records` to the config's JSON sink, if one was requested with
/// `repro --json <path>`. Errors are reported, not fatal — a benchmark
/// run should not die on a full disk after hours of measurement.
pub fn emit(cfg: &crate::Config, records: &[Record]) {
    if let Some(path) = &cfg.json {
        if let Err(e) = append_records(path, records) {
            eprintln!("[json] failed to append to {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_flat_objects_with_types_and_escapes() {
        let r = Record::new("memory")
            .u64("n", 65536)
            .i64("net", -12)
            .f64("ms", 1.5)
            .f64("bad", f64::NAN)
            .str("phase", "overlay \"csr\"\n");
        assert_eq!(
            r.to_json(),
            r#"{"experiment":"memory","n":65536,"net":-12,"ms":1.5,"bad":null,"phase":"overlay \"csr\"\n"}"#
        );
    }

    #[test]
    fn append_is_json_lines() {
        let dir = std::env::temp_dir().join(format!("xbench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let _ = std::fs::remove_file(&path);
        append_records(&path, &[Record::new("a").u64("x", 1)]).unwrap();
        append_records(&path, &[Record::new("b").u64("x", 2)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"a\"") && lines[1].contains("\"x\":2"));
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }
}
