//! The one JSON writer behind every exported artifact.
//!
//! Telemetry's `metrics.json` and Chrome `trace.json`, the obs
//! `dashboard.json` and every experiment's `BENCH_*.json` are written
//! through [`JsonWriter`], so JSON syntax, string escaping and layout live
//! in this module alone. Values are integers, strings and Chrome's
//! fixed-point microseconds only: no floats, so the same inputs always
//! produce the same bytes.
//!
//! ```
//! use dgsf_sim::json::{JsonWriter, Layout};
//!
//! let mut j = JsonWriter::new();
//! j.object(Layout::Lines(2), |j| {
//!     j.key("seed").u64(42);
//!     j.key("pairs").array(Layout::Compact, |j| {
//!         j.array(Layout::Compact, |j| {
//!             j.u64(1).i64(-2);
//!         });
//!     });
//! });
//! assert_eq!(j.finish(), "{\n  \"seed\": 42,\n  \"pairs\": [[1,-2]]\n}\n");
//! ```

use std::fmt::Write;

/// How an object or array separates its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Each member on its own line, `n` spaces in; the closing bracket on
    /// a new line `n − 2` spaces in.
    Lines(usize),
    /// Members separated by `", "`.
    Inline,
    /// Members separated by `","`.
    Compact,
}

/// An append-only JSON document. Containers are written by closures, so
/// every one opened is closed.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Layout of the innermost open container, and whether it has a member
    /// yet. `None` at the top level.
    open: Option<(Layout, bool)>,
    /// A key was just written, so the next value completes its member.
    after_key: bool,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// The document, followed by a newline.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }

    /// An object member's key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.member();
        push_escaped(&mut self.out, k);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    /// An object whose members `body` writes.
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(layout, '{', '}', body)
    }

    /// An array whose elements `body` writes.
    pub fn array(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(layout, '[', ']', body)
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.member();
        let _ = write!(self.out, "{v}");
        self
    }

    /// A signed integer.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.member();
        let _ = write!(self.out, "{v}");
        self
    }

    /// A string literal.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.member();
        push_escaped(&mut self.out, s);
        self
    }

    /// Nanoseconds as microseconds with a fixed three-digit fraction, as
    /// Chrome's `ts`/`dur` want them (integer math only).
    pub fn micros(&mut self, ns: u64) -> &mut Self {
        self.member();
        let _ = write!(self.out, "{}.{:03}", ns / 1000, ns % 1000);
        self
    }

    fn container(
        &mut self,
        layout: Layout,
        open: char,
        close: char,
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.member();
        self.out.push(open);
        let outer = self.open.replace((layout, false));
        body(self);
        self.open = outer;
        if let Layout::Lines(indent) = layout {
            self.newline(indent.saturating_sub(2));
        }
        self.out.push(close);
        self
    }

    /// Start a value or key: the separator its container's layout asks for,
    /// unless a key already started this member.
    fn member(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some((layout, started)) = &mut self.open else {
            return;
        };
        let layout = *layout;
        if std::mem::replace(started, true) {
            self.out
                .push_str(if layout == Layout::Inline { ", " } else { "," });
        }
        if let Layout::Lines(indent) = layout {
            self.newline(indent);
        }
    }

    fn newline(&mut self, indent: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', indent));
    }
}

/// Append `s` as a JSON string literal.
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: impl FnOnce(&mut JsonWriter)) -> String {
        let mut j = JsonWriter::new();
        body(&mut j);
        j.finish()
    }

    #[test]
    fn lines_put_each_member_on_its_own_line() {
        let s = doc(|j| {
            j.object(Layout::Lines(2), |j| {
                j.key("a").u64(1);
                j.key("b").array(Layout::Lines(4), |j| {
                    j.i64(-1).i64(2);
                });
            });
        });
        assert_eq!(s, "{\n  \"a\": 1,\n  \"b\": [\n    -1,\n    2\n  ]\n}\n");
    }

    #[test]
    fn empty_lines_container_closes_on_the_next_line() {
        assert_eq!(
            doc(|j| {
                j.object(Layout::Lines(2), |_| {});
            }),
            "{\n}\n"
        );
        let s = doc(|j| {
            j.object(Layout::Lines(2), |j| {
                j.key("empty").object(Layout::Lines(4), |_| {});
            });
        });
        assert_eq!(s, "{\n  \"empty\": {\n  }\n}\n");
    }

    #[test]
    fn inline_separates_with_comma_space() {
        let s = doc(|j| {
            j.object(Layout::Inline, |j| {
                j.key("s").str("x").key("n").u64(3);
                j.key("ids").array(Layout::Inline, |j| {
                    j.u64(1).u64(2);
                });
                j.key("none").object(Layout::Inline, |_| {});
            });
        });
        assert_eq!(
            s,
            "{\"s\": \"x\", \"n\": 3, \"ids\": [1, 2], \"none\": {}}\n"
        );
    }

    #[test]
    fn compact_separates_with_bare_comma() {
        let s = doc(|j| {
            j.array(Layout::Compact, |j| {
                j.array(Layout::Compact, |j| {
                    j.u64(1500).i64(-3);
                });
                j.array(Layout::Compact, |j| {
                    j.u64(2000).i64(4);
                });
                j.array(Layout::Compact, |_| {});
            });
        });
        assert_eq!(s, "[[1500,-3],[2000,4],[]]\n");
    }

    #[test]
    fn empty_chrome_export_shape() {
        let s = doc(|j| {
            j.object(Layout::Inline, |j| {
                j.key("traceEvents").array(Layout::Lines(0), |_| {});
            });
        });
        assert_eq!(s, "{\"traceEvents\": [\n]}\n");
        let s = doc(|j| {
            j.object(Layout::Inline, |j| {
                j.key("traceEvents").array(Layout::Lines(0), |j| {
                    j.u64(1).u64(2);
                });
            });
        });
        assert_eq!(s, "{\"traceEvents\": [\n1,\n2\n]}\n");
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let s = doc(|j| {
            j.object(Layout::Inline, |j| {
                j.key("k\"").str("a\"b\\c\n\r\t\u{1}é");
            });
        });
        assert_eq!(s, "{\"k\\\"\": \"a\\\"b\\\\c\\n\\r\\t\\u0001é\"}\n");
    }

    #[test]
    fn micros_keep_three_fraction_digits() {
        let s = doc(|j| {
            j.array(Layout::Inline, |j| {
                j.micros(0).micros(2_500).micros(1_000_007);
            });
        });
        assert_eq!(s, "[0.000, 2.500, 1000.007]\n");
    }

    #[test]
    fn integer_extremes() {
        let s = doc(|j| {
            j.array(Layout::Compact, |j| {
                j.u64(u64::MAX).i64(i64::MIN);
            });
        });
        assert_eq!(s, "[18446744073709551615,-9223372036854775808]\n");
    }
}
