//! Command-line parsing for `pxc` (no external dependencies).
//!
//! Every flag is one row of [`FLAGS`]: the command line that accepts it,
//! the kind of value it takes (an integer's inclusive range included) and
//! its help text. One loop parses both command lines against the table,
//! and the option blocks of [`usage`] are rendered from it.

use std::fmt::Write as _;

use pathexpander::PxConfig;
use px_detect::Tool;
use px_mach::{FaultMix, FaultPlan, IoState};

use Kind::{Int, Switch, Text};
use Line::{Campaign, Run};

/// Largest `pxc campaign --workers` value. Each worker is an OS thread,
/// and this is far above any core count the pool can use, so a larger
/// value is a typo, not a request.
const MAX_WORKERS: u32 = 256;

/// The largest `u32`, as the upper bound of a row whose value is a `u32`.
const U32_MAX: u64 = u32::MAX as u64;

/// Which command line accepts a flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Line {
    /// `run`, `base`, `build`, `bench`, `analyze` and `zoo`.
    Run,
    /// `campaign`.
    Campaign,
}

/// What follows a flag on the command line.
enum Kind {
    /// Nothing: the flag is a switch.
    Switch,
    /// A text value, shown in the help as this metavar.
    Text(&'static str),
    /// An integer in `min..=max` (`_` separators allowed), shown in the
    /// help as the metavar.
    Int(&'static str, u64, u64),
}

/// One row of the flag table: the command line that accepts the flag,
/// its name, what follows it, and its help text, one entry per printed
/// line.
struct Flag(Line, &'static str, Kind, &'static [&'static str]);

/// Every flag of both command lines, in the order the usage text lists
/// them. `--json` has a row on each.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag(Run, "--tool", Text("<ccured|iwatcher|assertions>"), &["detector to arm (default: assertions)"]),
    Flag(Run, "--cmp", Switch, &["use the CMP option (4 cores)"]),
    Flag(Run, "--max-nt-len", Int("<n>", 1, U32_MAX), &["MaxNTPathLength (default 1000)"]),
    Flag(Run, "--threshold", Int("<n>", 1, 255), &["NTPathCounterThreshold, 1–255", "(default 5)"]),
    Flag(Run, "--max-outstanding", Int("<n>", 1, U32_MAX), &["MaxNumNTPaths for --cmp (default 32)"]),
    Flag(Run, "--no-fixes", Switch, &["disable §4.4 variable fixing"]),
    Flag(Run, "--no-memo", Switch, &["disable the NT-path replay cache",
                                     "(architecturally identical, slower)"]),
    Flag(Run, "--os-sandbox", Switch, &["sandbox unsafe events (§3.2 extension)"]),
    Flag(Run, "--random-factor", Int("<n>", 1, U32_MAX), &["1-in-n spawns from hot edges (§7.1(2))"]),
    Flag(Run, "--refit", Switch, &["profile-guided fix refitting (§4.4",
                                   "value-invariants extension): profile",
                                   "on the run's input, then refit"]),
    Flag(Run, "--input", Text("<file>"), &["program stdin from a file"]),
    Flag(Run, "--input-text", Text("<string>"), &["program stdin from the argument"]),
    Flag(Run, "--seed", Int("<n>", 0, u64::MAX), &["input/rand seed (default 1)"]),
    Flag(Run, "--budget", Int("<n>", 1, u64::MAX), &["instruction budget (default 100M)"]),
    Flag(Run, "--fault-seed", Int("<n>", 0, u64::MAX), &["inject NT-path faults from this seed"]),
    Flag(Run, "--fault-mix", Text("<spec>"), &["fault kinds to inject, e.g.",
                                               "bitflip,crash=3 (implies injection)"]),
    Flag(Run, "--fault-rate", Int("<n>", 1, U32_MAX), &["inject roughly 1-in-n NT steps", "(default 4)"]),
    Flag(Run, "--static-filter", Int("<k>", 1, U32_MAX), &["(run/bench) veto NT spawns that must",
                                                           "hit an unsafe event within k insns"]),
    Flag(Run, "--json", Switch, &["(analyze) machine-readable output"]),
    Flag(Run, "--path-cover", Switch, &["(analyze) emit a minimal edge cover",
                                        "of the feasible prime paths"]),
    Flag(Run, "--disasm", Switch, &["(build) print the disassembly"]),
    Flag(Run, "--annotate", Switch, &["(run) print coverage-annotated",
                                      "disassembly: [T./N] per branch edge"]),
    Flag(Run, "--verbose", Switch, &["print NT-path stop breakdown"]),
    Flag(Campaign, "--cases", Text("<manifest>"), &["case manifest: `+`-joined generators",
                                                    "fault:<seed>:<n>[:<mix>],",
                                                    "zoo:<spec>[*K], zoo-roster[:quick],",
                                                    "chaos:<seed>:<n>"]),
    Flag(Campaign, "--journal", Text("<path>"), &["NDJSON journal (default",
                                                  "px-campaign.ndjson); an existing",
                                                  "journal for the same manifest is",
                                                  "resumed, torn tail healed"]),
    Flag(Campaign, "--timeout", Int("<n>", 1, u64::MAX), &["per-case instruction watchdog"]),
    Flag(Campaign, "--workers", Int("<n>", 0, MAX_WORKERS as u64), &["worker threads, at most 256",
                                                                     "(default 0: one per core)"]),
    Flag(Campaign, "--max-quarantine", Int("<n>", 0, u64::MAX), &["abort (resumably) past n quarantined"]),
    Flag(Campaign, "--only", Int("<id>", 0, u64::MAX), &["replay one case inline, no journal"]),
    Flag(Campaign, "--no-resume", Switch, &["start fresh, overwriting any journal"]),
    Flag(Campaign, "--json", Switch, &["machine-readable report"]),
];

/// The usage text above the option blocks.
const COMMANDS: &str = "\
pxc — PathExpander command-line driver

USAGE:
    pxc run   <file.pxc|file.pxs> [options]   compile + run under PathExpander
    pxc base  <file.pxc|file.pxs> [options]   compile + plain monitored run
    pxc build <file.pxc|file.pxs> [options]   compile only
    pxc bench <workload>          [options]   run a bundled workload
    pxc analyze <file|workload>   [options]   static CFG analysis + lint
    pxc list                                  list bundled workloads
    pxc zoo list                              list the generated-zoo roster
    pxc zoo generate <spec>       [options]   print a generated program
    pxc zoo run <spec>            [options]   run a generated program
    pxc campaign --cases <manifest> [opts]    crash-safe case campaign
    pxc help                                  this text (also `--help`
                                              or `-h` after any command)

    Zoo specs name generated programs: zoo:<shape>:<seed>[:n<size>][:<mix>]
    with shapes state-machine|parser|interpreter|recursive, sizes n1..n4 and
    bug mixes full|cold|lean|none (e.g. `zoo:parser:3:n3:lean`). Zoo names
    are also accepted by `pxc bench` and `pxc analyze`.
";

/// The usage text: the command list, then the option block of each
/// command line, rendered from [`FLAGS`].
#[must_use]
pub fn usage() -> String {
    let mut text = COMMANDS.to_owned();
    for (title, line) in [
        ("OPTIONS:", Run),
        ("CAMPAIGN OPTIONS (pxc campaign):", Campaign),
    ] {
        let _ = writeln!(text, "\n{title}");
        for Flag(_, name, kind, help) in FLAGS.iter().filter(|f| f.0 == line) {
            let head = match kind {
                Switch => (*name).to_owned(),
                Text(metavar) | Int(metavar, ..) => format!("{name} {metavar}"),
            };
            // The help text starts in column 41, on every line.
            let help = help.join(&format!("\n{:41}", ""));
            let _ = writeln!(text, "    {head:<36} {help}");
        }
    }
    text
}

/// What to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    Run(String),
    Base(String),
    Build(String),
    Bench(String),
    Analyze(String),
    List,
    Zoo(ZooCmd),
    Campaign(CampaignOpts),
    Help,
}

/// Options for `pxc campaign` (its own rows of [`FLAGS`]: campaign flags
/// describe a whole fleet of runs, not one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOpts {
    /// The case manifest spec (`fault:…+zoo:…+chaos:…`).
    pub cases: String,
    /// Journal path (default `px-campaign.ndjson`).
    pub journal: String,
    /// Per-case instruction watchdog.
    pub timeout: u64,
    /// Worker threads (0 = one per core).
    pub workers: usize,
    /// Abort (resumably) once more than this many cases are quarantined.
    pub max_quarantine: Option<u64>,
    /// Replay a single case id inline (the quarantine replay command).
    pub only: Option<u64>,
    /// Start fresh, overwriting any existing journal.
    pub no_resume: bool,
    /// Emit the report as JSON.
    pub json: bool,
}

impl Default for CampaignOpts {
    /// No cases yet; every other field at its flag's default.
    fn default() -> CampaignOpts {
        CampaignOpts {
            cases: String::new(),
            journal: "px-campaign.ndjson".to_owned(),
            timeout: px_campaign::Watchdog::DEFAULT_TIMEOUT,
            workers: 0,
            max_quarantine: None,
            only: None,
            no_resume: false,
            json: false,
        }
    }
}

/// `pxc zoo` subcommands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZooCmd {
    /// Print the E15 roster.
    List,
    /// Print the generated program and its bug manifest.
    Generate(String),
    /// Run the generated program under PathExpander.
    Run(String),
}

/// Parsed options.
#[derive(Debug, Clone)]
pub struct Options {
    pub action: Action,
    pub tool: Option<Tool>,
    pub px: PxConfig,
    pub input_file: Option<String>,
    pub input_text: Option<String>,
    pub seed: u64,
    pub disasm: bool,
    pub verbose: bool,
    pub refit: bool,
    pub annotate: bool,
    /// Emit machine-readable JSON (`analyze`).
    pub json: bool,
    /// `pxc analyze`: emit the Empc-style minimal edge cover of the
    /// feasible prime paths instead of the full analysis.
    pub path_cover: bool,
    /// Seed for NT-path fault injection (enables injection when set).
    pub fault_seed: Option<u64>,
    /// Fault kinds to inject (enables injection when set).
    pub fault_mix: Option<FaultMix>,
    /// Inject roughly one fault every `fault_rate` NT steps.
    pub fault_rate: u32,
    /// Known bug lines (set by `bench` from the workload manifest).
    pub bug_lines: Vec<u32>,
}

impl Options {
    /// Parses a raw argument list.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for an unknown command or flag, a
    /// missing value, or a value its flag does not accept.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        // `--help`/`-h` anywhere, after any command, asks for the usage
        // text, as no argument at all does.
        if args.iter().any(|a| matches!(a.as_str(), "--help" | "-h")) {
            return Options::parse(&[]);
        }
        let mut it = args.iter();
        let action = match it.next().map(String::as_str) {
            None | Some("help") => Action::Help,
            Some("list") => Action::List,
            Some(verb @ ("run" | "base" | "build" | "bench" | "analyze")) => {
                let target = it
                    .next()
                    .ok_or_else(|| format!("`{verb}` needs a file or workload name"))?
                    .clone();
                match verb {
                    "run" => Action::Run(target),
                    "base" => Action::Base(target),
                    "build" => Action::Build(target),
                    "analyze" => Action::Analyze(target),
                    _ => Action::Bench(target),
                }
            }
            Some("zoo") => match it.next().map(String::as_str) {
                Some("list") => Action::Zoo(ZooCmd::List),
                Some(sub @ ("generate" | "run")) => {
                    let spec = it
                        .next()
                        .ok_or_else(|| format!("`zoo {sub}` needs a spec (e.g. zoo:parser:3)"))?
                        .clone();
                    if sub == "generate" {
                        Action::Zoo(ZooCmd::Generate(spec))
                    } else {
                        Action::Zoo(ZooCmd::Run(spec))
                    }
                }
                Some(other) => {
                    return Err(format!(
                        "unknown zoo subcommand `{other}` (expected list, generate or run)"
                    ))
                }
                None => return Err("`zoo` needs a subcommand: list, generate or run".to_owned()),
            },
            Some("campaign") => Action::Campaign(CampaignOpts::default()),
            Some(other) => return Err(format!("unknown command `{other}`")),
        };
        let line = match action {
            Action::Campaign(_) => Campaign,
            _ => Run,
        };

        let mut opts = Options {
            action,
            tool: None,
            px: PxConfig::default().with_max_instructions(100_000_000),
            input_file: None,
            input_text: None,
            seed: 1,
            disasm: false,
            verbose: false,
            refit: false,
            annotate: false,
            json: false,
            path_cover: false,
            fault_seed: None,
            fault_mix: None,
            fault_rate: 4,
            bug_lines: Vec::new(),
        };
        let mut c = CampaignOpts::default();

        while let Some(arg) = it.next() {
            let Flag(_, name, kind, _) = FLAGS
                .iter()
                .find(|Flag(l, name, ..)| *l == line && name == arg)
                .ok_or_else(|| match line {
                    Run => format!("unknown option `{arg}`"),
                    Campaign => format!("unknown campaign option `{arg}`"),
                })?;
            let text: &str = match kind {
                Switch => "",
                Text(_) | Int(..) => it.next().ok_or_else(|| format!("`{name}` needs a value"))?,
            };
            let n = match *kind {
                Int(_, min, max) => parse_int(name, text, min, max)?,
                Switch | Text(_) => 0,
            };
            // `n` lies in the row's range, which bounds each narrowing here.
            match *name {
                "--tool" => {
                    let tool = Tool::ALL
                        .into_iter()
                        .find(|t| t.name().to_lowercase() == text);
                    opts.tool = Some(tool.ok_or_else(|| format!("unknown tool `{text}`"))?);
                }
                "--cmp" => opts.px = opts.px.clone().cmp(),
                "--max-nt-len" => opts.px = opts.px.clone().with_max_nt_path_len(n as u32),
                "--threshold" => opts.px = opts.px.clone().with_counter_threshold(n as u8),
                "--max-outstanding" => opts.px = opts.px.clone().with_max_outstanding(n as u32),
                "--no-fixes" => opts.px = opts.px.clone().with_fixes(false),
                "--no-memo" => opts.px = opts.px.clone().with_nt_memo(false),
                "--os-sandbox" => opts.px = opts.px.clone().with_os_sandbox(true),
                "--random-factor" => opts.px = opts.px.clone().with_random_factor(Some(n as u32)),
                "--refit" => opts.refit = true,
                "--input" => opts.input_file = Some(text.to_owned()),
                "--input-text" => opts.input_text = Some(text.to_owned()),
                "--seed" => opts.seed = n,
                "--budget" => opts.px = opts.px.clone().with_max_instructions(n),
                "--fault-seed" => opts.fault_seed = Some(n),
                "--fault-mix" => {
                    opts.fault_mix =
                        Some(FaultMix::parse(text).map_err(|e| format!("`--fault-mix`: {e}"))?);
                }
                "--fault-rate" => opts.fault_rate = n as u32,
                "--static-filter" => {
                    opts.px = opts.px.clone().with_static_nt_filter(Some(n as u32));
                }
                "--json" => opts.json = true,
                "--path-cover" => opts.path_cover = true,
                "--disasm" => opts.disasm = true,
                "--annotate" => opts.annotate = true,
                "--verbose" => opts.verbose = true,
                "--cases" => c.cases = text.to_owned(),
                "--journal" => c.journal = text.to_owned(),
                "--timeout" => c.timeout = n,
                "--workers" => c.workers = n as usize,
                "--max-quarantine" => c.max_quarantine = Some(n),
                "--only" => c.only = Some(n),
                "--no-resume" => c.no_resume = true,
                _ => unreachable!("`{name}` has a FLAGS row but no arm here"),
            }
        }

        if let Action::Campaign(campaign) = &mut opts.action {
            if c.cases.is_empty() {
                return Err(
                    "`campaign` needs `--cases <manifest>` (e.g. --cases chaos:1:64+zoo:parser:3)"
                        .to_owned(),
                );
            }
            c.json = opts.json;
            *campaign = c;
        }
        Ok(opts)
    }

    /// Builds the run's fault-injection plan, if any fault flag was given.
    ///
    /// `--fault-mix` alone injects with the run seed; `--fault-seed` alone
    /// injects a uniform mix.
    #[must_use]
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        if self.fault_seed.is_none() && self.fault_mix.is_none() {
            return None;
        }
        let seed = self.fault_seed.unwrap_or(self.seed);
        let mix = self.fault_mix.unwrap_or_else(FaultMix::uniform);
        Some(FaultPlan::new(seed, mix, self.fault_rate))
    }

    /// Builds the program's input state.
    ///
    /// # Errors
    ///
    /// Reports unreadable input files.
    pub fn io(&self) -> Result<IoState, String> {
        let bytes = if let Some(path) = &self.input_file {
            std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?
        } else if let Some(text) = &self.input_text {
            text.clone().into_bytes()
        } else {
            Vec::new()
        };
        Ok(IoState::new(bytes, self.seed))
    }
}

/// Parses `text`, the value of `flag`, as an integer in `min..=max`; the
/// error names the flag and the range.
fn parse_int(flag: &str, text: &str, min: u64, max: u64) -> Result<u64, String> {
    text.replace('_', "")
        .parse()
        .ok()
        .filter(|n| (min..=max).contains(n))
        .ok_or_else(|| format!("`{flag}` expects an integer in {min}–{max}, got `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        Options::parse(&owned)
    }

    #[test]
    fn help_after_any_command_asks_for_usage() {
        for args in [
            &["--help"][..],
            &["-h"],
            &["run", "--help"],
            &["run", "x.pxc", "-h"],
            &["analyze", "--help"],
            &["zoo", "--help"],
            &["zoo", "run", "-h"],
            &["campaign", "--help"],
            &["campaign", "--cases", "chaos:1:4", "-h"],
            &["run", "x.pxc", "--budget", "0", "--help"],
        ] {
            assert_eq!(parse(args).unwrap().action, Action::Help, "{args:?}");
        }
    }

    #[test]
    fn verbs_parse() {
        assert_eq!(parse(&["help"]).unwrap().action, Action::Help);
        assert_eq!(parse(&[]).unwrap().action, Action::Help);
        assert_eq!(parse(&["list"]).unwrap().action, Action::List);
        assert_eq!(
            parse(&["run", "x.pxc"]).unwrap().action,
            Action::Run("x.pxc".into())
        );
        assert_eq!(
            parse(&["bench", "bc"]).unwrap().action,
            Action::Bench("bc".into())
        );
        assert_eq!(
            parse(&["analyze", "bc"]).unwrap().action,
            Action::Analyze("bc".into())
        );
        assert!(parse(&["analyze"]).is_err());
        assert!(parse(&["run"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
    }

    #[test]
    fn zoo_verbs_parse() {
        assert_eq!(
            parse(&["zoo", "list"]).unwrap().action,
            Action::Zoo(ZooCmd::List)
        );
        assert_eq!(
            parse(&["zoo", "generate", "zoo:parser:3"]).unwrap().action,
            Action::Zoo(ZooCmd::Generate("zoo:parser:3".into()))
        );
        let o = parse(&[
            "zoo",
            "run",
            "zoo:recursive:1",
            "--tool",
            "ccured",
            "--json",
        ])
        .unwrap();
        assert_eq!(o.action, Action::Zoo(ZooCmd::Run("zoo:recursive:1".into())));
        assert_eq!(o.tool, Some(Tool::Ccured));
        assert!(o.json);
        assert!(parse(&["zoo"]).is_err());
        assert!(parse(&["zoo", "generate"]).is_err());
        assert!(parse(&["zoo", "feed"]).is_err());
    }

    #[test]
    fn campaign_flags_parse() {
        let o = parse(&[
            "campaign",
            "--cases",
            "chaos:1:8+zoo:parser:3*2",
            "--journal",
            "j.ndjson",
            "--timeout",
            "50000",
            "--workers",
            "3",
            "--max-quarantine",
            "10",
            "--no-resume",
            "--json",
        ])
        .unwrap();
        let Action::Campaign(c) = o.action else {
            panic!("expected a campaign action");
        };
        assert_eq!(c.cases, "chaos:1:8+zoo:parser:3*2");
        assert_eq!(c.journal, "j.ndjson");
        assert_eq!(c.timeout, 50_000);
        assert_eq!(c.workers, 3);
        assert_eq!(c.max_quarantine, Some(10));
        assert!(c.no_resume && c.json && c.only.is_none());

        let c = match parse(&["campaign", "--cases", "fault:1:4", "--only", "2"])
            .unwrap()
            .action
        {
            Action::Campaign(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(c.only, Some(2));
        assert_eq!(c.timeout, px_campaign::Watchdog::DEFAULT_TIMEOUT);
        assert_eq!(c.journal, "px-campaign.ndjson");

        assert!(parse(&["campaign"]).is_err(), "--cases is mandatory");
        assert!(parse(&["campaign", "--cases", "x", "--timeout", "0"]).is_err());
        assert!(parse(&["campaign", "--cases", "x", "--wat"]).is_err());
    }

    #[test]
    fn options_apply() {
        let o = parse(&[
            "run",
            "x.pxc",
            "--tool",
            "ccured",
            "--cmp",
            "--max-nt-len",
            "50",
            "--threshold",
            "2",
            "--no-fixes",
            "--no-memo",
            "--os-sandbox",
            "--random-factor",
            "9",
            "--seed",
            "7",
            "--verbose",
        ])
        .unwrap();
        assert_eq!(o.tool, Some(Tool::Ccured));
        assert_eq!(o.px.mode, pathexpander::Mode::Cmp);
        assert_eq!(o.px.max_nt_path_len, 50);
        assert_eq!(o.px.counter_threshold, 2);
        assert!(!o.px.apply_fixes);
        assert!(!o.px.nt_memo, "--no-memo turns the replay cache off");
        assert!(o.px.os_sandbox_unsafe);
        assert_eq!(o.px.random_factor, Some(9));
        assert_eq!(o.seed, 7);
        assert!(o.verbose);
    }

    #[test]
    fn bad_values_rejected() {
        assert!(parse(&["run", "x", "--tool", "purify"]).is_err());
        assert!(parse(&["run", "x", "--threshold"]).is_err());
        assert!(parse(&["run", "x", "--seed", "abc"]).is_err());
        assert!(parse(&["run", "x", "--wat"]).is_err());
        let e = parse(&["run", "x", "--max-nt-len", "0"]).unwrap_err();
        assert!(e.contains("--max-nt-len"), "{e}");
        for n in ["0", "256"] {
            let e = parse(&["run", "x", "--threshold", n]).unwrap_err();
            assert!(e.contains("--threshold") && e.contains(n), "{e}");
        }
        // `PxConfig` would clamp 0 to 1; the command line refuses it.
        let e = parse(&["run", "x", "--cmp", "--max-outstanding", "0"]).unwrap_err();
        assert!(e.contains("--max-outstanding"), "{e}");

        // Every integer row, so a new flag is covered without a new line
        // here: one below its range, one above it, and one non-number.
        for Flag(line, name, kind, _) in FLAGS {
            let Int(_, min, max) = *kind else { continue };
            let mut bad = vec![(u128::from(max) + 1).to_string(), "ten".to_owned()];
            if min > 0 {
                bad.push((min - 1).to_string());
            }
            let range = format!("{min}–{max}");
            for v in bad {
                let e = parse_flag(*line, name, Some(&v)).unwrap_err();
                assert!(
                    e.contains(&format!("`{name}`")) && e.contains(&range) && e.contains(&v),
                    "{name} {v}: {e}"
                );
            }
        }
    }

    /// Parses `name` (with `value`, if any) on the command line `line`.
    fn parse_flag(line: Line, name: &str, value: Option<&str>) -> Result<Options, String> {
        let mut args = match line {
            Run => vec!["run", "x"],
            Campaign => vec!["campaign", "--cases", "fault:1:4"],
        };
        args.push(name);
        args.extend(value);
        parse(&args)
    }

    #[test]
    fn every_row_parses_and_is_unique_on_its_line() {
        for (i, Flag(line, name, kind, _)) in FLAGS.iter().enumerate() {
            assert!(
                FLAGS[..i].iter().all(|f| (f.0, f.1) != (*line, *name)),
                "{name} has two rows on one command line"
            );
            // In range for every row, so each reaches its arm of the match;
            // parse-only, so `--workers` starts no threads.
            let value = match *kind {
                Switch => None,
                Int(_, min, _) => Some(min.to_string()),
                Text(_) if *name == "--tool" => Some("iwatcher".to_owned()),
                Text(_) if *name == "--fault-mix" => Some("crash".to_owned()),
                Text(_) => Some("x".to_owned()),
            };
            let parsed = parse_flag(*line, name, value.as_deref());
            assert!(parsed.is_ok(), "{name} {value:?}: {parsed:?}");
            assert!(usage().contains(name), "{name} is missing from the usage");
        }
    }

    #[test]
    fn numeric_errors_name_the_flag_and_its_range() {
        let run = |flag: &str, v: &str| parse(&["run", "x", flag, v]).unwrap_err();
        let campaign = |flag: &str, v: &str| {
            parse(&["campaign", "--cases", "fault:1:4", flag, v]).unwrap_err()
        };
        let pins = [
            (
                run("--max-nt-len", "5000000000"),
                "`--max-nt-len` expects an integer in 1–4294967295, got `5000000000`",
            ),
            (
                run("--threshold", "abc"),
                "`--threshold` expects an integer in 1–255, got `abc`",
            ),
            (
                run("--max-outstanding", "0"),
                "`--max-outstanding` expects an integer in 1–4294967295, got `0`",
            ),
            (
                run("--random-factor", "-3"),
                "`--random-factor` expects an integer in 1–4294967295, got `-3`",
            ),
            (
                run("--fault-rate", "0"),
                "`--fault-rate` expects an integer in 1–4294967295, got `0`",
            ),
            (
                run("--static-filter", "1e3"),
                "`--static-filter` expects an integer in 1–4294967295, got `1e3`",
            ),
            (
                campaign("--workers", "257"),
                "`--workers` expects an integer in 0–256, got `257`",
            ),
        ];
        for (got, want) in pins {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn campaign_workers_are_bounded() {
        // Parsing only: no test starts a pool of this size.
        let workers = |v: &str| -> Result<usize, String> {
            match parse(&["campaign", "--cases", "fault:1:4", "--workers", v])?.action {
                Action::Campaign(c) => Ok(c.workers),
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(workers("0"), Ok(0), "0 still means one per core");
        assert_eq!(workers(&MAX_WORKERS.to_string()), Ok(MAX_WORKERS as usize));
        assert!(workers(&(MAX_WORKERS + 1).to_string()).is_err());
        assert!(workers("4294967295").is_err());
        assert!(usage().contains(&format!("at most {MAX_WORKERS}")));
    }

    #[test]
    fn seeds_accept_full_u64_range() {
        let o = parse(&["run", "x", "--seed", "18446744073709551615"]).unwrap();
        assert_eq!(o.seed, u64::MAX);
        let e = parse(&["run", "x", "--seed", "-1"]).unwrap_err();
        assert!(e.contains("--seed") && e.contains("-1"), "{e}");
    }

    #[test]
    fn fault_flags_build_a_plan() {
        assert!(parse(&["run", "x"]).unwrap().fault_plan().is_none());
        let o = parse(&["run", "x", "--fault-seed", "9"]).unwrap();
        assert_eq!(o.fault_seed, Some(9));
        assert!(o.fault_plan().is_some(), "--fault-seed alone injects");
        let o = parse(&["run", "x", "--fault-mix", "crash=2,bitflip"]).unwrap();
        assert!(o.fault_plan().is_some(), "--fault-mix alone injects");
        assert_eq!(o.fault_rate, 4);
        let o = parse(&["run", "x", "--fault-seed", "1", "--fault-rate", "2"]).unwrap();
        assert_eq!(o.fault_rate, 2);
    }

    #[test]
    fn bad_fault_flags_give_helpful_errors() {
        let e = parse(&["run", "x", "--fault-mix", "gremlins"]).unwrap_err();
        assert!(e.contains("--fault-mix") && e.contains("gremlins"), "{e}");
        let e = parse(&["run", "x", "--fault-mix", "crash=zero"]).unwrap_err();
        assert!(e.contains("--fault-mix"), "{e}");
        let e = parse(&["run", "x", "--fault-rate", "0"]).unwrap_err();
        assert!(e.contains("--fault-rate"), "{e}");
        let e = parse(&["run", "x", "--fault-seed", "soon"]).unwrap_err();
        assert!(e.contains("--fault-seed") && e.contains("soon"), "{e}");
        assert!(parse(&["run", "x", "--budget", "0"]).is_err());
    }

    #[test]
    fn static_filter_and_json_flags() {
        let o = parse(&["run", "x", "--static-filter", "16"]).unwrap();
        assert_eq!(o.px.static_nt_filter, Some(16));
        assert!(parse(&["run", "x", "--static-filter", "0"]).is_err());
        let o = parse(&["analyze", "x", "--json"]).unwrap();
        assert!(o.json);
        assert!(!o.path_cover);
        let o = parse(&["analyze", "x", "--path-cover", "--json"]).unwrap();
        assert!(o.path_cover && o.json);
        assert_eq!(
            parse(&["run", "x"]).unwrap().px.static_nt_filter,
            None,
            "filter is opt-in"
        );
    }

    #[test]
    fn io_from_text() {
        let o = parse(&["run", "x", "--input-text", "41 1"]).unwrap();
        let mut io = o.io().unwrap();
        assert_eq!(io.read_int(), 41);
        assert_eq!(io.read_int(), 1);
    }
}
