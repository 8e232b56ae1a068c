//! The command line of `simulate`, `serve` and `repro`, parsed one way.
//!
//! Each binary declares each of its flags once, as one row of a [`flags!`](crate::flags)
//! table: its name, value syntax, help line, simulator-only mark and a
//! setter that writes the field the run reads. [`parse`] walks the
//! arguments against that table; `--help`, and the messages for a missing
//! value, a bad value and an unknown argument, come from it too. Every
//! exit-2 error goes through [`die`], which prints `error: <msg>` and the
//! binary's usage line to stderr.

use causal_types::MAX_VARS;
use std::error::Error;
use std::str::FromStr;
use std::sync::OnceLock;

/// Why a setter refused its value.
pub type Bad = Box<dyn Error>;

/// One flag of a binary: a row of its [`flags!`](crate::flags) table.
pub struct Flag<T> {
    /// The flag as typed, `--n`.
    pub name: &'static str,
    /// The syntax of its value, `<sites>`; empty for a switch.
    pub value: &'static str,
    /// One line for `--help`.
    pub help: &'static str,
    /// Whether it configures what only the simulator has.
    pub sim_only: bool,
    /// Write the value (empty for a switch) into the run's config.
    pub set: fn(&mut T, &str) -> Result<(), Bad>,
}

/// A table of [`Flag`]s, one row a line:
/// `"--n" "<sites>" "system size" => |c, v| c.n = v.parse()?;`.
/// `sim` before the help line marks a simulator-only flag.
#[macro_export]
macro_rules! flags {
    (@sim) => { false };
    (@sim sim) => { true };
    ($($name:literal $value:literal $($sim:ident)? $help:literal => |$c:ident, $v:pat_param| $set:expr;)*) => {
        &[$($crate::cli::Flag {
            name: $name,
            value: $value,
            help: $help,
            sim_only: $crate::flags!(@sim $($sim)?),
            set: |$c, $v| {
                $set;
                Ok(())
            },
        }),*]
    };
}

static USAGE: OnceLock<String> = OnceLock::new();

/// Print `error: <msg>` and the usage line to stderr, then exit 2.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    let usage = USAGE.get().map_or("", String::as_str);
    eprintln!("usage: {usage} (--help lists the flags)");
    std::process::exit(2);
}

/// `v` as a number other than zero.
pub fn positive<N: FromStr + Default + PartialEq>(v: &str) -> Result<N, Bad>
where
    N::Err: Error + 'static,
{
    let n: N = v.parse()?;
    if n == N::default() {
        return Err("must be positive".into());
    }
    Ok(n)
}

/// `v` as a number of variables: positive and at most [`MAX_VARS`].
pub fn variables(v: &str) -> Result<usize, Bad> {
    match positive(v)? {
        q if q > MAX_VARS => Err(format!("must be at most {MAX_VARS}").into()),
        q => Ok(q),
    }
}

/// `v` as a system size: a number of sites a destination set holds.
pub fn sites(v: &str) -> Result<usize, Bad> {
    let n = v.parse()?;
    causal_memory::Placement::full(n)?;
    Ok(n)
}

/// Apply the process's arguments to `target` by the rows of `flags`; a
/// word that is no flag goes to `operand`, which returns `false` to refuse
/// it. `usage` is the synopsis `--help` and [`die`] print; `--help` lists
/// `operands` (each a word and what it means) between it and the flags.
/// Returns the first simulator-only flag given.
pub fn parse<T>(
    usage: String,
    operands: &[(&str, &str)],
    flags: &[Flag<T>],
    target: &mut T,
    mut operand: impl FnMut(&str) -> bool,
) -> Option<&'static str> {
    debug_assert!(
        (1..flags.len()).all(|i| flags[..i].iter().all(|f| f.name != flags[i].name)),
        "a flag is declared twice"
    );
    let usage = USAGE.get_or_init(|| usage);
    let mut sim_only = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            println!("usage: {usage}\n");
            let width = operands.iter().map(|(word, _)| word.len()).max();
            for (word, about) in operands {
                println!("  {word:0$}  {about}", width.unwrap_or(0));
            }
            if width.is_some() {
                println!();
            }
            let syntax = |f: &Flag<T>| format!("{} {}", f.name, f.value);
            let width = flags.iter().map(|f| syntax(f).len()).max().unwrap_or(0);
            for f in flags {
                let mark = if f.sim_only { " (simulator-only)" } else { "" };
                println!("  {:width$}  {}{mark}", syntax(f), f.help);
            }
            std::process::exit(0);
        }
        let Some(flag) = flags.iter().find(|f| f.name == arg) else {
            if arg.starts_with('-') || !operand(&arg) {
                die(&format!("unknown argument: {arg}"));
            }
            continue;
        };
        let v = match flag.value {
            "" => String::new(),
            _ => args
                .next()
                .unwrap_or_else(|| die(&format!("missing value for {arg}"))),
        };
        if let Err(e) = (flag.set)(target, &v) {
            die(&format!("bad value for {arg}: {v} ({e})"));
        }
        if flag.sim_only {
            sim_only.get_or_insert(flag.name);
        }
    }
    sim_only
}
