//! The docs name only benchmark artifacts that are in the repository:
//! every `BENCH_*.json` that README.md, DESIGN.md or EXPERIMENTS.md
//! mentions must exist at the repository root, and each of its non-empty
//! lines must be one JSON object (the JSON-lines format `repro --json`
//! appends).

use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Every `BENCH_<name>.json` token in `text`, in order of appearance.
fn bench_names(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("BENCH_") {
        let tail = &rest[at..];
        let stem = tail["BENCH_".len()..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map_or(tail.len(), |i| i + "BENCH_".len());
        let ext = &tail[stem..];
        if ext.starts_with(".json")
            && !ext[".json".len()..].starts_with(|c: char| c.is_alphanumeric())
        {
            names.push(format!("{}.json", &tail[..stem]));
        }
        rest = &tail["BENCH_".len()..];
    }
    names
}

/// A minimal JSON recognizer: does `s` hold exactly one JSON value?
struct Json<'a> {
    s: &'a [u8],
    i: usize,
}

impl Json<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    fn value(&mut self) -> bool {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.seq(b'{', b'}', |p| p.string() && p.eat(b':') && p.value()),
            Some(b'[') => self.seq(b'[', b']', Self::value),
            Some(b'"') => self.string(),
            Some(_) => self.scalar(),
            None => false,
        }
    }

    /// `open item (, item)* close`, or `open close`.
    fn seq(&mut self, open: u8, close: u8, item: impl Fn(&mut Self) -> bool) -> bool {
        if !self.eat(open) {
            return false;
        }
        if self.eat(close) {
            return true;
        }
        loop {
            if !item(self) {
                return false;
            }
            if self.eat(close) {
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
        }
    }

    fn string(&mut self) -> bool {
        if !self.eat(b'"') {
            return false;
        }
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return true,
                b'\\' => self.i += 1,
                c if c < 0x20 => return false,
                _ => {}
            }
        }
        false
    }

    /// A number, `true`, `false` or `null`.
    fn scalar(&mut self) -> bool {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c))
        {
            self.i += 1;
        }
        let word = std::str::from_utf8(&self.s[start..self.i]).unwrap_or("");
        matches!(word, "true" | "false" | "null")
            || (word.parse::<f64>().is_ok_and(f64::is_finite)
                && word.starts_with(|c: char| c == '-' || c.is_ascii_digit()))
    }
}

fn is_json_object(line: &str) -> bool {
    let mut p = Json {
        s: line.as_bytes(),
        i: 0,
    };
    p.ws();
    let object = p.s.get(p.i) == Some(&b'{') && p.value();
    p.ws();
    object && p.i == p.s.len()
}

#[test]
fn bench_artifacts_named_in_docs_exist_and_are_json_lines() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc readable");
        for name in bench_names(&text) {
            let path = root.join(&name);
            let body = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{doc} names {name}, which is not at the root: {e}"));
            let mut records = 0;
            for (i, line) in body.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                assert!(
                    is_json_object(line),
                    "{name}:{}: not a JSON object: {line}",
                    i + 1
                );
                records += 1;
            }
            assert!(records > 0, "{name} holds no records");
            checked += 1;
        }
    }
    assert!(checked > 0, "the docs name no BENCH_*.json artifact");
}

#[test]
fn bench_name_scan_and_json_recognizer() {
    assert_eq!(
        bench_names("see `BENCH_serve.json`, BENCH_x.jsonl and BENCH_ alone"),
        ["BENCH_serve.json"]
    );
    assert!(is_json_object(
        r#"{"a":1,"b":[true,null,-2.5e3],"c":{"d":"x\"y"}}"#
    ));
    for bad in [
        "",
        "[1]",
        "{",
        r#"{"a":}"#,
        r#"{"a":1,}"#,
        r#"{"a":nan}"#,
        r#"{"a":1} x"#,
    ] {
        assert!(!is_json_object(bad), "{bad:?}");
    }
}
