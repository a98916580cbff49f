//! The one argument parser: a command's usage line is its grammar.
//!
//! A usage line such as
//!
//! ```text
//! gen <1..6> --out PATH [--corrupt garbage-fn|dangling-symbol|overlapping-symbols]
//! ```
//!
//! declares everything the parser checks:
//!
//! * `<x>` and bare words (`FUNCTION`) are required positionals, `[X]`
//!   optional ones;
//! * a `--flag` followed by a placeholder (`PATH`, `N`, `store|sse`)
//!   takes a value, a lone `--flag` is a switch;
//! * a flag inside `[...]` is optional, one outside is required;
//! * `[--a|--b]` lists alternatives: at most one may be given.

use crate::usage;

/// One flag a usage line declares.
struct Flag {
    name: &'static str,
    takes_value: bool,
    required: bool,
    /// Index of the usage item the flag came from: flags that share it
    /// are `[--a|--b]` alternatives.
    group: usize,
}

/// What a usage line declares: its flags and its positionals (each
/// positional's placeholder and whether it is required).
struct Spec {
    flags: Vec<Flag>,
    positionals: Vec<(&'static str, bool)>,
}

impl Spec {
    /// Reads a command's usage line (after the command name) followed
    /// by its hidden flags.
    fn read(usage_line: &'static str, hidden: &'static str) -> Spec {
        let mut spec = Spec { flags: Vec::new(), positionals: Vec::new() };
        let tokens = usage_line.split_whitespace().skip(1).chain(hidden.split_whitespace());
        let mut bracketed = false;
        // Whether the previous token was a flag awaiting its placeholder.
        let mut placeholder_due = false;
        for (item, token) in tokens.enumerate() {
            let optional = bracketed || token.starts_with('[');
            bracketed = optional && !token.ends_with(']');
            let body = token.trim_start_matches('[').trim_end_matches(']');
            if body.starts_with("--") {
                for name in body.split('|') {
                    spec.flags.push(Flag {
                        name,
                        takes_value: false,
                        required: !optional,
                        group: item,
                    });
                }
                placeholder_due = !token.ends_with(']');
            } else if placeholder_due {
                let group = spec.flags.last().map(|f| f.group);
                for f in spec.flags.iter_mut().filter(|f| Some(f.group) == group) {
                    f.takes_value = true;
                }
                placeholder_due = false;
            } else {
                spec.positionals.push((body, !optional));
            }
        }
        spec
    }

    fn flag(&self, name: &str) -> Option<&Flag> {
        self.flags.iter().find(|f| f.name == name)
    }
}

/// One command's parsed arguments.
pub(crate) struct Args<'a> {
    /// The command name, for error messages.
    pub(crate) cmd: &'static str,
    spec: Spec,
    positionals: Vec<&'a str>,
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Parses `rest` (the arguments after the command name) against the
    /// command's usage line plus its `hidden` flags, which are accepted
    /// but not printed.
    ///
    /// # Errors
    ///
    /// A usage error naming the argument at fault: an undeclared flag, a
    /// repeated one, a value flag without a value (or followed by another
    /// `--flag`), two alternatives of one `[--a|--b]` group, a surplus or
    /// missing positional, or a missing required flag.
    pub(crate) fn parse(
        usage_line: &'static str,
        hidden: &'static str,
        rest: &'a [String],
    ) -> Result<Args<'a>, String> {
        let cmd = usage_line.split_whitespace().next().unwrap_or_default();
        let fail = |msg: String| format!("{cmd}: {msg}\n{}", usage());
        let spec = Spec::read(usage_line, hidden);
        let mut args = Args { cmd, spec, positionals: Vec::new(), flags: Vec::new() };
        let mut it = rest.iter().map(String::as_str);
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                if args.positionals.len() == args.spec.positionals.len() {
                    return Err(fail(format!("unexpected argument `{a}`")));
                }
                args.positionals.push(a);
                continue;
            }
            let flag = args.spec.flag(a).ok_or_else(|| fail(format!("unknown flag `{a}`")))?;
            // A repeat is in its own group.
            if let Some((other, _)) = args
                .flags
                .iter()
                .find(|(given, _)| args.spec.flag(given).is_some_and(|g| g.group == flag.group))
            {
                return Err(fail(if *other == flag.name {
                    format!("{a} given twice")
                } else {
                    format!("{other} and {a} are mutually exclusive")
                }));
            }
            let value = if flag.takes_value {
                match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return Err(fail(format!("{a} expects a value"))),
                }
            } else {
                None
            };
            args.flags.push((flag.name, value));
        }
        // Required positionals come before optional ones.
        if let Some((placeholder, true)) = args.spec.positionals.get(args.positionals.len()) {
            return Err(fail(format!("missing {placeholder}")));
        }
        if let Some(f) = args.spec.flags.iter().find(|f| f.required && !args.flag(f.name)) {
            return Err(fail(format!("missing {}", f.name)));
        }
        Ok(args)
    }

    fn declared(&self, name: &str) {
        debug_assert!(self.spec.flag(name).is_some(), "`{}` reads undeclared {name}", self.cmd);
    }

    /// Positional `i`, one the usage line requires (so it is present).
    pub(crate) fn arg(&self, i: usize) -> &'a str {
        self.positionals[i]
    }

    /// Positional `i`, one the usage line marks optional.
    pub(crate) fn opt_arg(&self, i: usize) -> Option<&'a str> {
        self.positionals.get(i).copied()
    }

    /// Whether the switch or value flag `name` was given.
    pub(crate) fn flag(&self, name: &str) -> bool {
        self.declared(name);
        self.flags.iter().any(|(given, _)| *given == name)
    }

    /// The value of the value flag `name`, if given.
    pub(crate) fn value(&self, name: &str) -> Option<&'a str> {
        self.declared(name);
        self.flags.iter().find(|(given, _)| *given == name).and_then(|(_, v)| *v)
    }

    /// The numeric value of `name`, `default` when it is absent.
    pub(crate) fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.value(name).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{}: {name} expects a number", self.cmd))
        })
    }
}
