//! Small helpers over the workspace's JSON value tree.

pub use serde::Value;

/// Member `key` of a JSON object.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Numeric member `key` of a JSON object.
pub fn number(value: &Value, key: &str) -> Option<f64> {
    get(value, key).and_then(Value::as_f64)
}

/// The members of a JSON object, empty for anything else.
pub fn members(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Map(entries) => entries,
        _ => &[],
    }
}

pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// A value tree is its own serialisation.
struct Tree<'a>(&'a Value);

impl serde::Serialize for Tree<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// `value` on one line.
pub fn compact(value: &Value) -> String {
    serde_json::to_string(&Tree(value)).expect("value trees always print")
}

/// `value` indented, for files people read.
pub fn pretty(value: &Value) -> String {
    serde_json::to_string_pretty(&Tree(value)).expect("value trees always print")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_round_trip_through_the_printer_and_parser() {
        let value = object([("a", Value::Num(1.25)), ("b", object([("c", text("x"))]))]);
        let printed = compact(&value);
        assert_eq!(printed, "{\"a\":1.25,\"b\":{\"c\":\"x\"}}");
        let parsed = serde_json::parse(&printed).unwrap();
        assert_eq!(number(&parsed, "a"), Some(1.25));
        assert_eq!(get(&parsed, "b").and_then(|b| get(b, "c")).and_then(Value::as_str), Some("x"));
        assert_eq!(members(&parsed).len(), 2);
        assert!(serde_json::parse(&pretty(&value)).is_ok());
    }
}
