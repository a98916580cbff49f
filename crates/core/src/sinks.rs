//! Sources and sinks — the paper's Table I, plus per-sink taint rules.

use dtaint_dataflow::SINK_NAMES;
use std::collections::HashSet;

/// The class of weakness a sink can trigger (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VulnKind {
    /// Insufficient validation of a length/content reaching a copy.
    BufferOverflow,
    /// Unsanitised data reaching a command interpreter.
    CommandInjection,
}

impl std::fmt::Display for VulnKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VulnKind::BufferOverflow => f.write_str("buffer overflow"),
            VulnKind::CommandInjection => f.write_str("command injection"),
        }
    }
}

/// Which sink argument carries the attacker-relevant (tainted) variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintedVar {
    /// The argument value itself (e.g. `memcpy`'s length, arg 2).
    Arg(usize),
    /// The data the argument points at (e.g. `strcpy`'s source string).
    Pointee(usize),
    /// The pointees of this argument and everything after it
    /// (`sprintf`'s varargs).
    PointeesFrom(usize),
}

/// One sensitive sink: name, weakness class, and taint rule.
#[derive(Debug, Clone, Copy)]
pub struct SinkSpec {
    /// Import name.
    pub name: &'static str,
    /// Weakness class the sink triggers.
    pub kind: VulnKind,
    /// Where the tainted variable sits.
    pub tainted: TaintedVar,
}

/// The sensitive sinks of Table I (the loop-copy sink is structural and
/// handled separately): one rule per [`SINK_NAMES`] entry, in its order.
pub const SINK_SPECS: &[SinkSpec] = {
    use TaintedVar::*;
    use VulnKind::*;
    const fn spec(i: usize, kind: VulnKind, tainted: TaintedVar) -> SinkSpec {
        SinkSpec { name: SINK_NAMES[i], kind, tainted }
    }
    &[
        spec(0, BufferOverflow, Pointee(1)),      // strcpy
        spec(1, BufferOverflow, Arg(2)),          // strncpy
        spec(2, BufferOverflow, PointeesFrom(2)), // sprintf
        spec(3, BufferOverflow, Arg(2)),          // memcpy
        spec(4, BufferOverflow, Pointee(1)),      // strcat
        spec(5, BufferOverflow, Pointee(0)),      // sscanf
        spec(6, CommandInjection, Pointee(0)),    // system
        spec(7, CommandInjection, Pointee(0)),    // popen
    ]
};

/// Shell metacharacters whose comparison against tainted data counts as
/// command-injection sanitisation. `;`, `|`, and `&` chain or terminate
/// a command under `sh -c`; a backtick opens a command substitution.
/// Firmware input validators typically reject any one of these, so a
/// path guarded by such a comparison is treated as filtered.
pub const CMD_SEPARATORS: &[i64] = &[b';' as i64, b'|' as i64, b'&' as i64, b'`' as i64];

/// The input sources of Table I.
pub const SOURCE_NAMES: &[&str] = &[
    "read",
    "recv",
    "recvfrom",
    "recvmsg",
    "getenv",
    "fgets",
    "websGetVar",
    "find_var",
    // Used by the OpenSSL-shaped workload (ssl3_read_n reads via BIO).
    "BIO_read",
];

/// Looks up the sink specification for an import name.
pub fn sink_spec(name: &str) -> Option<&'static SinkSpec> {
    SINK_SPECS.iter().find(|s| s.name == name)
}

/// The default source-name set.
pub fn default_sources() -> HashSet<String> {
    SOURCE_NAMES.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_complete() {
        assert_eq!(SINK_SPECS.len(), 8);
        assert!(SOURCE_NAMES.len() >= 8);
        assert!(sink_spec("system").is_some());
        assert!(sink_spec("recv").is_none(), "sources are not sinks");
    }

    #[test]
    fn length_sinks_use_arg_rules() {
        assert_eq!(sink_spec("memcpy").unwrap().tainted, TaintedVar::Arg(2));
        assert_eq!(sink_spec("strcpy").unwrap().tainted, TaintedVar::Pointee(1));
        assert_eq!(sink_spec("sprintf").unwrap().tainted, TaintedVar::PointeesFrom(2));
    }

    #[test]
    fn command_sinks_are_injection_kind() {
        for name in ["system", "popen"] {
            assert_eq!(sink_spec(name).unwrap().kind, VulnKind::CommandInjection);
        }
    }

    #[test]
    fn separator_list_covers_shell_metacharacters() {
        for b in [b';', b'|', b'&', b'`'] {
            assert!(CMD_SEPARATORS.contains(&i64::from(b)), "{} missing", b as char);
        }
        assert!(!CMD_SEPARATORS.contains(&i64::from(b'a')));
    }
}
