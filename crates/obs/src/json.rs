//! Minimal JSON *extraction* — the read-side counterpart of the
//! hand-rolled exporters.
//!
//! The bench binaries emit flat, sorted, integer-only JSON documents
//! (`BENCH_obs.json`, `BENCH_analyze.json`). The baseline comparator
//! needs to read those documents back without pulling a JSON dependency
//! into the workspace, so this module provides just enough: locate a
//! key's value, split an array into its top-level objects, and pull
//! unsigned integers and strings out of flat objects. It is not a
//! general JSON parser — nesting is handled only by bracket matching,
//! and numbers are expected to be unsigned integers (the exporters
//! guarantee both).

/// Returns the raw text of the value of `"key"` among the direct members
/// of the object `obj` — an object/array including its brackets, a
/// string including its quotes, or a scalar up to the enclosing
/// `,`/`}`/`]`. Keys of nested objects and text inside string values
/// never match, and nothing after the object's closing brace is read.
#[must_use]
pub fn json_section<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    for (at, byte, depth) in tokens(obj) {
        match (byte, depth) {
            (b'}' | b']', 0) => return None,
            (b'"', 1) => {
                let end = string_end(obj.as_bytes(), at)?;
                if obj[at + 1..end] != *key {
                    continue;
                }
                if let Some(value) = obj[end + 1..].trim_start().strip_prefix(':') {
                    return value_text(value.trim_start());
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits an array slice (as returned by [`json_section`], brackets
/// included) into its top-level `{…}` object slices.
#[must_use]
pub fn json_objects(array: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = None;
    for (at, byte, depth) in tokens(array) {
        match (byte, depth) {
            (b'{', 2) => start = Some(at),
            (b'}', 1) => out.extend(start.take().map(|s| &array[s..=at])),
            _ => {}
        }
    }
    out
}

/// The structure of a JSON text outside its string literals: each
/// bracket and the opening quote of each string, as `(byte index, byte,
/// depth)`, the depth counted after the byte (`{` and `[` enter a level,
/// `}` and `]` leave one).
fn tokens(text: &str) -> impl Iterator<Item = (usize, u8, usize)> + '_ {
    let bytes = text.as_bytes();
    let (mut i, mut depth) = (0, 0usize);
    std::iter::from_fn(move || {
        while i < bytes.len() {
            let at = i;
            i += 1;
            match bytes[at] {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth = depth.saturating_sub(1),
                b'"' => i = string_end(bytes, at).map_or(bytes.len(), |end| end + 1),
                _ => continue,
            }
            return Some((at, bytes[at], depth));
        }
        None
    })
}

/// Index of the quote closing the string that opens at `open`; `None`
/// when the string is unterminated.
fn string_end(bytes: &[u8], open: usize) -> Option<usize> {
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 1,
            b'"' => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// The text of the value that starts `rest`.
fn value_text(rest: &str) -> Option<&str> {
    match rest.as_bytes().first()? {
        b'{' | b'[' => tokens(rest)
            .find(|&(_, _, depth)| depth == 0)
            .map(|(end, _, _)| &rest[..=end]),
        b'"' => string_end(rest.as_bytes(), 0).map(|end| &rest[..=end]),
        _ => {
            let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
            Some(rest[..end].trim())
        }
    }
}

/// Reads the unsigned integer value of `"key"` in a flat object slice.
#[must_use]
pub fn json_u64(obj: &str, key: &str) -> Option<u64> {
    json_section(obj, key)?.parse().ok()
}

/// Reads the (unescaped-as-written) string value of `"key"` in a flat
/// object slice.
#[must_use]
pub fn json_str<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let raw = json_section(obj, key)?;
    raw.strip_prefix('"')?.strip_suffix('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\"bench\":\"obs_report\",\"seed\":2008,\
         \"catalogue\":[{\"spec\":\"CRC-32\",\"m\":8,\"throughput_bps\":1600000000},\
         {\"spec\":\"odd{\\\"}name\",\"m\":32,\"throughput_bps\":6400000000}],\
         \"storm\":{\"queue_depth\":{\"p99\":7,\"max\":9},\"passed\":true}}";

    #[test]
    fn sections_scalars_and_strings_extract() {
        assert_eq!(json_section(DOC, "seed"), Some("2008"));
        assert_eq!(json_u64(DOC, "seed"), Some(2008));
        assert_eq!(json_str(DOC, "bench"), Some("obs_report"));
        let storm = json_section(DOC, "storm").unwrap();
        assert!(storm.starts_with('{') && storm.ends_with('}'));
        assert_eq!(
            json_u64(json_section(storm, "queue_depth").unwrap(), "p99"),
            Some(7)
        );
    }

    #[test]
    fn arrays_split_into_objects_despite_tricky_strings() {
        let cat = json_section(DOC, "catalogue").unwrap();
        let objs = json_objects(cat);
        assert_eq!(objs.len(), 2);
        assert_eq!(json_str(objs[0], "spec"), Some("CRC-32"));
        assert_eq!(json_u64(objs[0], "throughput_bps"), Some(1_600_000_000));
        assert_eq!(json_u64(objs[1], "m"), Some(32));
    }

    #[test]
    fn only_the_objects_own_members_match() {
        assert_eq!(json_u64(r#"{"a":{"p99":1},"p99":2}"#, "p99"), Some(2));
        assert_eq!(json_u64(r#"{"a":{"p99":1}}"#, "p99"), None);
        assert_eq!(json_u64(DOC, "p99"), None, "p99 is nested in storm");
        assert_eq!(json_u64(DOC, "m"), None, "m is inside catalogue's objects");
        // Nothing past the object's closing brace is read.
        assert_eq!(json_u64(r#"{"a":1},{"p99":2}"#, "p99"), None);
    }

    #[test]
    fn a_key_inside_a_string_never_matches() {
        // The first `"p99":` in the text ends the key `say \"p99`.
        assert_eq!(json_u64(r#"{"say \"p99":1,"p99":2}"#, "p99"), Some(2));
        let doc = r#"{"note":"\"p99\":5,","p99":3,"tag":"x\\","n":4}"#;
        assert_eq!(json_u64(doc, "p99"), Some(3));
        assert_eq!(json_str(doc, "note"), Some(r#"\"p99\":5,"#));
        assert_eq!(
            json_u64(doc, "n"),
            Some(4),
            "an escaped backslash ends before the quote"
        );
        assert_eq!(json_u64(r#"{"note":"\"p99\":5"}"#, "p99"), None);
        assert_eq!(json_section(r#"{"s":"{\"p99\":1}"}"#, "p99"), None);
    }

    #[test]
    fn missing_keys_are_none() {
        assert_eq!(json_section(DOC, "nope"), None);
        for torn in [r#"{"p99"#, r#"{"p99":"#, r#"{"p99":"7"#, r#"{"p99":{"a":1"#] {
            assert_eq!(json_section(torn, "p99"), None, "{torn}");
        }
        assert_eq!(json_u64(DOC, "bench"), None, "strings do not parse as u64");
    }
}
