//! Reading what `gossip-sim` prints: the top-level fields of a JSON run
//! line or a CSV row, the fingerprint that pins a workload's output, and
//! the structural invariants every run line must satisfy.
//!
//! The harness has no JSON dependency and needs none: it only splits one
//! object into raw `key → value text` pairs and reads a few integers.

/// Fields that legitimately differ between two runs of the same
/// experiment; everything else is simulated and must repeat exactly.
pub const VOLATILE_FIELDS: &[&str] = &["threads", "wall_ms"];

/// One emitted run as ordered `(key, raw value)` pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct RunLine {
    fields: Vec<(String, String)>,
}

impl RunLine {
    /// Split a one-line JSON object into its top-level members. Values
    /// stay raw text (`"ring"` keeps its quotes, nested objects their
    /// braces). `None` if the line is not a well-formed flat scan.
    pub fn parse_json(line: &str) -> Option<RunLine> {
        let bytes = line.trim().as_bytes();
        if bytes.first() != Some(&b'{') || bytes.last() != Some(&b'}') {
            return None;
        }
        let mut fields = Vec::new();
        let mut i = 1;
        while i < bytes.len() - 1 {
            if bytes[i] != b'"' {
                return None;
            }
            let key_end = string_end(bytes, i)?;
            let key = std::str::from_utf8(&bytes[i + 1..key_end]).ok()?;
            if bytes.get(key_end + 1) != Some(&b':') {
                return None;
            }
            let value_start = key_end + 2;
            let value_end = value_end(bytes, value_start)?;
            let value = std::str::from_utf8(&bytes[value_start..value_end]).ok()?;
            fields.push((key.to_string(), value.to_string()));
            i = value_end + 1; // past the ',' (or onto the final '}')
        }
        Some(RunLine { fields })
    }

    /// Pair a CSV row with its header. The emitter never quotes (names
    /// and ids are comma-free by construction), so a plain split is the
    /// format. `None` on a column-count mismatch.
    pub fn parse_csv(header: &str, row: &str) -> Option<RunLine> {
        let keys: Vec<&str> = header.split(',').collect();
        let values: Vec<&str> = row.split(',').collect();
        (keys.len() == values.len()).then(|| RunLine {
            fields: keys
                .iter()
                .zip(values)
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.parse().ok()
    }

    /// A nested JSON object member, split the same way.
    pub fn object(&self, key: &str) -> Option<RunLine> {
        RunLine::parse_json(self.get(key)?)
    }

    /// Feed every non-volatile field, in emitted order, to `hash`.
    /// Moving `wall_ms`/`threads` around (or changing their values)
    /// leaves the hash alone; touching anything else changes it.
    pub fn hash_into(&self, hash: &mut Fnv) {
        for (key, value) in &self.fields {
            if !VOLATILE_FIELDS.contains(&key.as_str()) {
                hash.write(key.as_bytes());
                hash.write(b"=");
                hash.write(value.as_bytes());
                hash.write(b";");
            }
        }
        hash.write(b"\n");
    }

    /// `nodes × rounds_executed`, the work unit of `node_rounds_per_s`.
    pub fn node_rounds(&self) -> Option<u64> {
        Some(self.u64("nodes")? * self.u64("rounds_executed")?)
    }

    /// The invariants a speed-up must not break: the `completed`
    /// expectation, the pinned round count of a capped run, connection
    /// accounting, and full coverage of a completed run (all nodes, or
    /// all nodes still alive under churn).
    pub fn check(&self, expect_completed: bool, expect_rounds: Option<u64>) -> Result<(), String> {
        let need = |key: &str| self.u64(key).ok_or(format!("missing field '{key}'"));
        let completed = match self.get("completed") {
            Some("true") => true,
            Some("false") => false,
            other => return Err(format!("bad 'completed' field: {other:?}")),
        };
        if completed != expect_completed {
            return Err(format!(
                "completed = {completed}, expected {expect_completed}"
            ));
        }
        let rounds = need("rounds_executed")?;
        if expect_rounds.is_some_and(|r| r != rounds) {
            return Err(format!(
                "rounds_executed = {rounds}, expected {expect_rounds:?}"
            ));
        }
        let (total, productive, wasted) = (
            need("total_connections")?,
            need("productive_connections")?,
            need("wasted_connections")?,
        );
        if total != productive + wasted {
            return Err(format!(
                "total {total} != productive {productive} + wasted {wasted}"
            ));
        }
        if completed {
            let (nodes, complete) = (need("nodes")?, need("complete_nodes")?);
            // JSON nests the churn stats, CSV flattens them.
            let final_alive = self
                .object("dynamics")
                .and_then(|d| d.u64("final_alive"))
                .or(self.u64("final_alive"));
            if complete != nodes && Some(complete) != final_alive {
                return Err(format!(
                    "completed with complete_nodes = {complete}, nodes = {nodes}, final_alive = {final_alive:?}"
                ));
            }
        }
        Ok(())
    }
}

/// Parse and fingerprint a block of JSON run lines, handing each to
/// `visit` and dropping it again: the harness must stay small, because a
/// child's `ru_maxrss` can never read lower than its parent's own peak
/// (see `child.rs`). Returns the number of lines.
pub fn visit_json_lines(
    text: &str,
    hash: &mut Fnv,
    mut visit: impl FnMut(&RunLine),
) -> Result<usize, String> {
    let mut count = 0;
    for line in text.lines() {
        let parsed = RunLine::parse_json(line).ok_or(format!("not a JSON run line: {line:.80}"))?;
        parsed.hash_into(hash);
        visit(&parsed);
        count += 1;
    }
    Ok(count)
}

/// [`visit_json_lines`] for CSV output: a header, then one row per run.
pub fn visit_csv_rows(
    text: &str,
    hash: &mut Fnv,
    mut visit: impl FnMut(&RunLine),
) -> Result<usize, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty CSV output")?;
    let mut count = 0;
    for row in lines {
        let parsed = RunLine::parse_csv(header, row)
            .ok_or(format!("CSV row does not match the header: {row:.80}"))?;
        parsed.hash_into(hash);
        visit(&parsed);
        count += 1;
    }
    Ok(count)
}

/// Index of the closing quote of the string opening at `bytes[open]`.
fn string_end(bytes: &[u8], open: usize) -> Option<usize> {
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

/// Index just past the value starting at `start`: the position of the
/// `,` or `}` that ends it at nesting depth zero.
fn value_end(bytes: &[u8], start: usize) -> Option<usize> {
    let (mut i, mut depth) = (start, 0usize);
    while i < bytes.len() {
        match bytes[i] {
            b'"' => i = string_end(bytes, i)?,
            b'{' | b'[' => depth += 1,
            b'}' | b']' if depth > 0 => depth -= 1,
            b',' | b'}' if depth == 0 => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// FNV-1a, 64 bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"schema":1,"scenario_id":"rgg-advert-sync-n30-k1-cap4-churn0.05:keep-s7","topology":"rgg","nodes":30,"seed":7,"completed":false,"rounds_to_completion":null,"rounds_executed":4,"total_connections":11,"productive_connections":9,"wasted_connections":2,"complete_nodes":10,"dynamics":{"model":"churn","final_alive":28,"coverage_timeline":[{"time":0,"alive":30},{"time":1023,"alive":29}]},"threads":2,"wall_ms":17}"#;

    fn fingerprint(line: &str) -> u64 {
        let mut hash = Fnv::default();
        RunLine::parse_json(line)
            .expect("parses")
            .hash_into(&mut hash);
        hash.finish()
    }

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn extracts_top_level_and_nested_fields() {
        let line = RunLine::parse_json(LINE).unwrap();
        assert_eq!(line.get("topology"), Some("\"rgg\""));
        assert_eq!(line.u64("nodes"), Some(30));
        assert_eq!(line.get("rounds_to_completion"), Some("null"));
        assert_eq!(line.u64("rounds_to_completion"), None);
        assert_eq!(line.node_rounds(), Some(120));
        // The colon and comma inside the scenario id and the nested
        // arrays do not confuse the splitter.
        assert!(line.get("scenario_id").unwrap().contains("churn0.05:keep"));
        assert_eq!(
            line.object("dynamics").unwrap().u64("final_alive"),
            Some(28)
        );
        assert_eq!(line.u64("wall_ms"), Some(17));
        assert_eq!(RunLine::parse_json("not json"), None);
        assert_eq!(RunLine::parse_json("{\"a\":1,\"b\"}"), None);
    }

    #[test]
    fn csv_rows_pair_with_their_header() {
        let row = RunLine::parse_csv("nodes,completed,final_alive,wall_ms", "64,true,,3").unwrap();
        assert_eq!(row.u64("nodes"), Some(64));
        assert_eq!(row.get("final_alive"), Some(""));
        assert_eq!(RunLine::parse_csv("a,b", "1,2,3"), None);
    }

    #[test]
    fn fingerprint_ignores_only_wall_ms_and_threads() {
        let base = fingerprint(LINE);
        // Different values for the volatile fields: same fingerprint.
        let other_values = LINE.replace(
            "\"threads\":2,\"wall_ms\":17",
            "\"threads\":8,\"wall_ms\":99999",
        );
        assert_eq!(fingerprint(&other_values), base);
        // The volatile fields moved to the front: same fingerprint.
        let moved = LINE.replace(",\"threads\":2,\"wall_ms\":17", "").replace(
            "{\"schema\":1",
            "{\"wall_ms\":17,\"schema\":1,\"threads\":2",
        );
        assert_eq!(fingerprint(&moved), base);
        // Any other field reordered or changed: different fingerprint.
        let reordered = LINE.replace("\"nodes\":30,\"seed\":7", "\"seed\":7,\"nodes\":30");
        assert_ne!(fingerprint(&reordered), base);
        let changed = LINE.replace("\"total_connections\":11", "\"total_connections\":12");
        assert_ne!(fingerprint(&changed), base);
        let nested = LINE.replace("\"final_alive\":28", "\"final_alive\":27");
        assert_ne!(fingerprint(&nested), base);
    }

    #[test]
    fn invariants_catch_each_kind_of_wrong_answer() {
        let line = RunLine::parse_json(LINE).unwrap();
        assert_eq!(line.check(false, Some(4)), Ok(()));
        assert!(line.check(true, Some(4)).unwrap_err().contains("completed"));
        assert!(line
            .check(false, Some(5))
            .unwrap_err()
            .contains("rounds_executed"));
        let bad_sum = RunLine::parse_json(
            &LINE.replace("\"wasted_connections\":2", "\"wasted_connections\":3"),
        )
        .unwrap();
        assert!(bad_sum.check(false, None).unwrap_err().contains("total"));

        // A completed run must cover every node, or every alive node.
        let done = LINE.replace("\"completed\":false", "\"completed\":true");
        let partial = RunLine::parse_json(&done).unwrap();
        assert!(partial
            .check(true, None)
            .unwrap_err()
            .contains("complete_nodes"));
        let alive =
            RunLine::parse_json(&done.replace("\"complete_nodes\":10", "\"complete_nodes\":28"))
                .unwrap();
        assert_eq!(alive.check(true, None), Ok(()));
        let all =
            RunLine::parse_json(&done.replace("\"complete_nodes\":10", "\"complete_nodes\":30"))
                .unwrap();
        assert_eq!(all.check(true, None), Ok(()));
    }
}
