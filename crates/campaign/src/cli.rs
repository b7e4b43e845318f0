//! The `prac-bench` command-line interface.
//!
//! * `prac-bench list` — enumerate the registered campaigns,
//! * `prac-bench run <name>... | --all` — run campaigns through the parallel
//!   runner with the incremental cache and JSON/CSV artifacts,
//! * `prac-bench serve` / `query` — the result store as a long-running
//!   NDJSON query service and its scripting client,
//! * `prac-bench store <stats|verify|compact|export|import>` — direct
//!   store maintenance.

use std::path::PathBuf;

use dram_sim::DeviceProfile;
use result_store::{Bundle, ResultStore};
use serde_json::{Map, Value};
use system_sim::{AttackKind, EngineKind};

use crate::artifact::ArtifactStore;
use crate::cache::ResultCache;
use crate::registry::{all_campaigns, find_campaign, Profile};
use crate::runner::{CampaignRunner, RunSummary, ScenarioRecord};
use crate::serve::{client, Server};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    command: Command,
    names: Vec<String>,
    all: bool,
    full: bool,
    instructions_per_core: Option<u64>,
    cores: Option<u32>,
    channels: Option<u32>,
    ranks: Option<u32>,
    device_profile: Option<DeviceProfile>,
    attack: Option<AttackKind>,
    workers: Option<usize>,
    engine: EngineKind,
    no_cache: bool,
    out_dir: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    addr: Option<String>,
    socket: Option<PathBuf>,
    spec_json: Option<String>,
    key: Option<String>,
    protocol_op: Option<&'static str>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    List,
    Mitigations,
    Attacks,
    Profiles,
    Run,
    Serve,
    Query,
    Store,
    Help,
}

/// Default TCP endpoint of `prac-bench serve`.
const DEFAULT_ADDR: &str = "127.0.0.1:7117";

const USAGE: &str = "prac-bench — unified campaign runner for the PRACLeak/TPRAC evaluation

USAGE:
    prac-bench list [--full]
    prac-bench mitigations
    prac-bench attacks
    prac-bench profiles
    prac-bench run <name>... [options]
    prac-bench run --all [options]
    prac-bench serve [--addr H:P | --socket PATH] [--cache-dir DIR] [--engine E]
    prac-bench query [--addr H:P | --socket PATH] <what>
    prac-bench store <stats|verify|compact> [--cache-dir DIR]
    prac-bench store <export|import> <FILE> [--cache-dir DIR]

COMMANDS:
    list              Enumerate the registered campaigns
    mitigations       Enumerate the registered mitigation setups
    attacks           Enumerate the registered attack patterns
    profiles          Enumerate the named DDR5 device timing profiles
    run               Execute campaigns through the parallel runner
    serve             Answer scenario queries from the result store over
                      newline-delimited JSON (run-on-miss, persist, reply)
    query             One-shot client for a running `serve`; <what> is a
                      <campaign> <scenario> pair, --spec-json JSON,
                      --key HEX, --ping, --stats or --shutdown
    store             Inspect or maintain the result store directly

OPTIONS:
    --all             Run every registered campaign
    --quick           Reduced sweeps and budgets (default)
    --full            Paper-scale sweeps and budgets
    --instr <N>       Override instructions per core for performance cells
    --cores <N>       Override core count for performance cells
    --channels <N>    Override memory-channel count for performance cells
                      (power of two; the `scaling` campaign sweeps its own
                      channel counts and ignores this knob)
    --ranks <N>       Override ranks per channel for performance cells
                      (power of two; default: the device organization's own
                      rank count; the `scaling` campaign sweeps its own
                      rank counts and ignores this knob)
    --profile <SLUG>  Run cells against a named DDR5 device timing profile
                      (see `prac-bench profiles` for slugs; default:
                      jedec-baseline)
    --attack <SLUG>   Run performance cells with an adversarial co-runner on
                      one extra core (see `prac-bench attacks` for slugs;
                      the `attacks` campaign sweeps its own patterns and
                      ignores this knob)
    --workers <N>     Worker threads (default: all hardware threads)
    --engine <E>      Simulation engine: `event` (default) jumps between
                      component wake-ups; `tick` is the legacy per-cycle
                      loop.  Results are bit-identical either way.
    --no-cache        Ignore and do not update the incremental result cache
    --out <DIR>       Artifact root (default: target/campaigns)
    --cache-dir <DIR> Result store root (default: target/campaigns/cache)
    --addr <H:P>      serve/query TCP endpoint (default: 127.0.0.1:7117)
    --socket <PATH>   serve/query Unix domain socket instead of TCP
    --spec-json <J>   query: canonical scenario spec JSON to look up / run
    --key <HEX>       query: fetch a stored record by 16-hex-digit key
    --ping            query: liveness check
    --stats           query: store statistics from the server
    --shutdown        query: ask the server to stop cleanly

Artifacts are written to <out>/<campaign>/results.{json,csv}; cached cells
are reused when the scenario configuration (including seeds and budgets) is
unchanged.";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        command: Command::Help,
        names: Vec::new(),
        all: false,
        full: false,
        instructions_per_core: None,
        cores: None,
        channels: None,
        ranks: None,
        device_profile: None,
        attack: None,
        workers: None,
        engine: EngineKind::default(),
        no_cache: false,
        out_dir: None,
        cache_dir: None,
        addr: None,
        socket: None,
        spec_json: None,
        key: None,
        protocol_op: None,
    };
    let mut iter = args.iter();
    match iter.next().map(String::as_str) {
        Some("list") => options.command = Command::List,
        Some("mitigations") => options.command = Command::Mitigations,
        Some("attacks") => options.command = Command::Attacks,
        Some("profiles") => options.command = Command::Profiles,
        Some("run") => options.command = Command::Run,
        Some("serve") => options.command = Command::Serve,
        Some("query") => options.command = Command::Query,
        Some("store") => options.command = Command::Store,
        Some("help" | "--help" | "-h") | None => return Ok(options),
        Some(other) => return Err(format!("unknown command `{other}`")),
    }
    let mut iter = iter.peekable();
    while let Some(arg) = iter.next() {
        let mut numeric = |name: &str| -> Result<u64, String> {
            iter.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} requires a numeric argument"))
        };
        match arg.as_str() {
            "--all" => options.all = true,
            "--full" => options.full = true,
            "--quick" => options.full = false,
            "--no-cache" => options.no_cache = true,
            "--instr" => options.instructions_per_core = Some(numeric("--instr")?),
            "--cores" => options.cores = Some(numeric("--cores")? as u32),
            "--channels" => {
                options.channels = Some(power_of_two_flag("--channels", numeric("--channels")?)?);
            }
            "--ranks" => {
                options.ranks = Some(power_of_two_flag("--ranks", numeric("--ranks")?)?);
            }
            "--profile" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--profile requires a device-profile slug".to_string())?;
                options.device_profile = Some(DeviceProfile::parse(value).ok_or_else(|| {
                    let known: Vec<&str> = DeviceProfile::registry()
                        .into_iter()
                        .map(DeviceProfile::slug)
                        .collect();
                    format!(
                        "unknown device profile `{value}` (known: {})",
                        known.join(", ")
                    )
                })?);
            }
            "--attack" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--attack requires a pattern slug".to_string())?;
                options.attack = Some(AttackKind::parse_slug(value).ok_or_else(|| {
                    let known: Vec<String> = workloads::attack_registry()
                        .into_iter()
                        .map(|descriptor| descriptor.slug)
                        .collect();
                    format!(
                        "unknown attack pattern `{value}` (known: {})",
                        known.join(", ")
                    )
                })?);
            }
            "--workers" => options.workers = Some(numeric("--workers")? as usize),
            "--engine" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--engine requires `tick` or `event`".to_string())?;
                options.engine = EngineKind::parse(value)
                    .ok_or_else(|| format!("unknown engine `{value}` (use `tick` or `event`)"))?;
            }
            "--out" => {
                options.out_dir = Some(
                    iter.next()
                        .map(PathBuf::from)
                        .ok_or_else(|| "--out requires a directory".to_string())?,
                );
            }
            "--cache-dir" => {
                options.cache_dir = Some(
                    iter.next()
                        .map(PathBuf::from)
                        .ok_or_else(|| "--cache-dir requires a directory".to_string())?,
                );
            }
            "--addr" => {
                options.addr = Some(
                    iter.next()
                        .cloned()
                        .ok_or_else(|| "--addr requires host:port".to_string())?,
                );
            }
            "--socket" => {
                options.socket = Some(
                    iter.next()
                        .map(PathBuf::from)
                        .ok_or_else(|| "--socket requires a path".to_string())?,
                );
            }
            "--spec-json" => {
                options.spec_json = Some(
                    iter.next()
                        .cloned()
                        .ok_or_else(|| "--spec-json requires a JSON object".to_string())?,
                );
            }
            "--key" => {
                options.key = Some(
                    iter.next()
                        .cloned()
                        .ok_or_else(|| "--key requires a 16-hex-digit key".to_string())?,
                );
            }
            "--ping" => options.protocol_op = Some("ping"),
            "--stats" => options.protocol_op = Some("stats"),
            "--shutdown" => options.protocol_op = Some("shutdown"),
            name if name.starts_with("--") => return Err(format!("unknown option `{name}`")),
            name => options.names.push(name.to_string()),
        }
    }
    Ok(options)
}

/// Validates a power-of-two topology flag.  The wording mirrors the
/// simulator's own `ExperimentConfig` validation so the CLI and the library
/// reject a bad count with the same message, naming the accepted range.
fn power_of_two_flag(name: &str, value: u64) -> Result<u32, String> {
    let value = u32::try_from(value)
        .map_err(|_| format!("{name} must be a power of two (1, 2, 4, ...), got {value}"))?;
    if value == 0 || !value.is_power_of_two() {
        return Err(format!(
            "{name} must be a power of two (1, 2, 4, ...), got {value}"
        ));
    }
    Ok(value)
}

fn profile_for(options: &Options) -> Profile {
    let mut profile = if options.full {
        Profile::full()
    } else {
        Profile::quick()
    };
    if let Some(instr) = options.instructions_per_core {
        profile.instructions_per_core = instr;
    }
    if let Some(cores) = options.cores {
        profile.cores = cores;
    }
    if let Some(channels) = options.channels {
        profile.channels = channels;
    }
    if let Some(ranks) = options.ranks {
        profile.ranks = ranks;
    }
    if let Some(device_profile) = options.device_profile {
        profile.device_profile = device_profile;
    }
    if let Some(attack) = options.attack {
        profile.attack = Some(attack);
    }
    profile
}

/// Runs the CLI against explicit arguments (everything after the binary
/// name) and returns the process exit code.
#[must_use]
pub fn run_cli(args: &[String]) -> i32 {
    let options = match parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return 2;
        }
    };
    match options.command {
        Command::Help => {
            println!("{USAGE}");
            0
        }
        Command::List => {
            let profile = profile_for(&options);
            println!(
                "{} registered campaigns ({} profile):\n",
                all_campaigns(&profile).len(),
                if profile.full { "full" } else { "quick" }
            );
            println!("{:<10} {:>9}  title", "name", "scenarios");
            for campaign in all_campaigns(&profile) {
                println!(
                    "{:<10} {:>9}  {}",
                    campaign.name,
                    campaign.scenarios.len(),
                    campaign.title
                );
            }
            0
        }
        Command::Mitigations => {
            let registry = system_sim::mitigation_registry();
            println!("{} registered mitigation setups:\n", registry.len());
            println!("{:<14} {:<34} {:<9}  summary", "slug", "label", "timing");
            for descriptor in registry {
                println!(
                    "{:<14} {:<34} {:<9}  {}",
                    descriptor.slug,
                    descriptor.label,
                    if descriptor.is_activity_dependent() {
                        "leaky"
                    } else {
                        "constant"
                    },
                    descriptor.summary
                );
            }
            0
        }
        Command::Attacks => {
            let registry = workloads::attack_registry();
            println!("{} registered attack patterns:\n", registry.len());
            println!("{:<16} {:<24} summary", "slug", "label");
            for descriptor in registry {
                println!(
                    "{:<16} {:<24} {}",
                    descriptor.slug, descriptor.label, descriptor.summary
                );
            }
            0
        }
        Command::Profiles => {
            let registry = DeviceProfile::registry();
            println!("{} named device timing profiles:\n", registry.len());
            println!(
                "{:<16} {:<22} {:>8} {:>9} {:>11} {:<10}  summary",
                "slug", "label", "tRFC", "tRFMab", "PRAC", "on-die ECC"
            );
            for profile in registry {
                let timing = profile.timing();
                let prac: Vec<String> = prac_core::config::PracLevel::all()
                    .into_iter()
                    .filter(|level| profile.supports_prac_level(*level))
                    .map(|level| level.rfms_per_alert().to_string())
                    .collect();
                let ecc = profile.on_die_ecc().map_or_else(
                    || "none".to_string(),
                    |ecc| format!("SEC/{}b", ecc.codeword_bits),
                );
                println!(
                    "{:<16} {:<22} {:>7}t {:>8}t {:>11} {:<10}  {}",
                    profile.slug(),
                    profile.label(),
                    timing.t_rfc,
                    timing.t_rfmab,
                    prac.join("/"),
                    ecc,
                    profile.summary()
                );
            }
            0
        }
        Command::Run => run_command(&options),
        Command::Serve => serve_command(&options),
        Command::Query => query_command(&options),
        Command::Store => store_command(&options),
    }
}

/// Entry point for `std::env::args`-based binaries.
#[must_use]
pub fn main_from_env() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run_cli(&args)
}

fn run_command(options: &Options) -> i32 {
    let profile = profile_for(options);
    let campaigns = if options.all {
        all_campaigns(&profile)
    } else if options.names.is_empty() {
        eprintln!("error: `run` needs campaign names or --all\n\n{USAGE}");
        return 2;
    } else {
        let mut selected = Vec::new();
        for name in &options.names {
            match find_campaign(name, &profile) {
                Some(campaign) => selected.push(campaign),
                None => {
                    let known: Vec<String> = all_campaigns(&profile)
                        .into_iter()
                        .map(|c| c.name)
                        .collect();
                    eprintln!(
                        "error: unknown campaign `{name}` (known: {})",
                        known.join(", ")
                    );
                    return 2;
                }
            }
        }
        selected
    };

    let artifact_root = options
        .out_dir
        .clone()
        .unwrap_or_else(ArtifactStore::default_root);
    let cache_root = options
        .cache_dir
        .clone()
        .unwrap_or_else(ResultCache::default_root);

    // One store handle for the whole invocation: campaigns share the index
    // (and its single writer) instead of re-opening the store per campaign.
    let cache = if options.no_cache {
        None
    } else {
        match ResultCache::open(&cache_root) {
            Ok(cache) => Some(cache),
            Err(error) => {
                eprintln!(
                    "error: cannot open cache at {}: {error}",
                    cache_root.display()
                );
                return 1;
            }
        }
    };

    for campaign in &campaigns {
        let mut runner = CampaignRunner::new()
            .with_progress(true)
            .with_engine(options.engine)
            .with_artifacts(ArtifactStore::new(&artifact_root));
        if let Some(workers) = options.workers {
            runner = runner.with_workers(workers);
        }
        if let Some(cache) = &cache {
            runner = runner.with_cache(cache.clone());
        }

        println!("== {} — {}", campaign.name, campaign.title);
        match runner.run(campaign) {
            Ok(summary) => print_summary(campaign.name.as_str(), &summary),
            Err(error) => {
                eprintln!("error: campaign {} failed: {error}", campaign.name);
                return 1;
            }
        }
        println!();
    }
    if let Some(cache) = &cache {
        if let Err(error) = cache.flush() {
            eprintln!("warning: cache flush failed: {error}");
        }
    }
    0
}

fn serve_command(options: &Options) -> i32 {
    let store_root = options
        .cache_dir
        .clone()
        .unwrap_or_else(ResultCache::default_root);
    let cache = match ResultCache::open(&store_root) {
        Ok(cache) => cache,
        Err(error) => {
            eprintln!(
                "error: cannot open store at {}: {error}",
                store_root.display()
            );
            return 1;
        }
    };
    let server = Server::new(cache, options.engine);

    if let Some(socket) = &options.socket {
        #[cfg(unix)]
        {
            let _ = std::fs::remove_file(socket);
            let listener = match std::os::unix::net::UnixListener::bind(socket) {
                Ok(listener) => listener,
                Err(error) => {
                    eprintln!("error: cannot bind {}: {error}", socket.display());
                    return 1;
                }
            };
            println!(
                "serving result store {} on unix socket {}",
                store_root.display(),
                socket.display()
            );
            let outcome = server.serve_unix(&listener);
            let _ = std::fs::remove_file(socket);
            return finish_serve(outcome);
        }
        #[cfg(not(unix))]
        {
            eprintln!("error: --socket is only available on Unix platforms");
            return 1;
        }
    }

    let addr = options.addr.clone().unwrap_or_else(|| DEFAULT_ADDR.into());
    let listener = match std::net::TcpListener::bind(&addr) {
        Ok(listener) => listener,
        Err(error) => {
            eprintln!("error: cannot bind {addr}: {error}");
            return 1;
        }
    };
    let resolved = listener
        .local_addr()
        .map_or(addr.clone(), |a| a.to_string());
    println!(
        "serving result store {} on {resolved}",
        store_root.display()
    );
    finish_serve(server.serve_tcp(&listener))
}

fn finish_serve(outcome: std::io::Result<()>) -> i32 {
    match outcome {
        Ok(()) => {
            println!("serve: clean shutdown, store flushed");
            0
        }
        Err(error) => {
            eprintln!("error: serve loop failed: {error}");
            1
        }
    }
}

fn query_command(options: &Options) -> i32 {
    let request = match build_query_request(options) {
        Ok(request) => request,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return 2;
        }
    };
    let response = if let Some(socket) = &options.socket {
        #[cfg(unix)]
        {
            client::request_unix(socket, &request)
        }
        #[cfg(not(unix))]
        {
            let _ = socket;
            Err(std::io::Error::other(
                "--socket is only available on Unix platforms",
            ))
        }
    } else {
        let addr = options.addr.clone().unwrap_or_else(|| DEFAULT_ADDR.into());
        client::request_tcp(addr.as_str(), &request)
    };
    match response {
        Ok(reply) => {
            println!("{reply}");
            i32::from(reply.get("ok") != Some(&Value::Bool(true)))
        }
        Err(error) => {
            eprintln!("error: query failed: {error}");
            1
        }
    }
}

/// Builds the protocol request for `prac-bench query` from the flags (or a
/// `<campaign> <scenario>` pair resolved through the registry).
fn build_query_request(options: &Options) -> Result<Value, String> {
    let mut request = Map::new();
    if let Some(op) = options.protocol_op {
        request.insert("op".into(), op.into());
        return Ok(Value::Object(request));
    }
    if let Some(key) = &options.key {
        request.insert("op".into(), "get".into());
        request.insert("key".into(), key.as_str().into());
        return Ok(Value::Object(request));
    }
    if let Some(text) = &options.spec_json {
        let spec =
            serde_json::from_str(text).map_err(|error| format!("bad --spec-json: {error}"))?;
        request.insert("op".into(), "query".into());
        request.insert("spec".into(), spec);
        return Ok(Value::Object(request));
    }
    if let [campaign_name, scenario_name] = options.names.as_slice() {
        let profile = profile_for(options);
        let campaign = find_campaign(campaign_name, &profile)
            .ok_or_else(|| format!("unknown campaign `{campaign_name}`"))?;
        let scenario = campaign
            .scenarios
            .iter()
            .find(|scenario| &scenario.name == scenario_name)
            .ok_or_else(|| {
                format!("campaign `{campaign_name}` has no scenario `{scenario_name}`")
            })?;
        request.insert("op".into(), "query".into());
        request.insert("spec".into(), scenario.spec.to_json());
        return Ok(Value::Object(request));
    }
    Err(
        "`query` needs <campaign> <scenario>, --spec-json, --key, --ping, --stats or --shutdown"
            .into(),
    )
}

fn store_command(options: &Options) -> i32 {
    let store_root = options
        .cache_dir
        .clone()
        .unwrap_or_else(ResultCache::default_root);
    let action = options.names.first().map(String::as_str);
    let store = match ResultStore::open(&store_root) {
        Ok(store) => store,
        Err(error) => {
            eprintln!(
                "error: cannot open store at {}: {error}",
                store_root.display()
            );
            return 1;
        }
    };
    match action {
        Some("stats") => {
            let stats = store.stats();
            println!("store:              {}", store_root.display());
            println!("live records:       {}", stats.live_records);
            println!("total records:      {}", stats.total_records);
            println!("superseded records: {}", stats.superseded_records);
            println!("corrupt lines:      {}", stats.corrupt_lines);
            println!("segments:           {}", stats.segments);
            println!("bytes:              {}", stats.bytes);
            println!("dedup ratio:        {:.3}", stats.dedup_ratio());
            0
        }
        Some("verify") => match store.verify() {
            Ok(report) => {
                println!("records verified:   {}", report.records_verified);
                println!("corrupt lines:      {}", report.corrupt_lines);
                println!("key mismatches:     {}", report.key_mismatches);
                println!("missing from index: {}", report.missing_from_index);
                if report.is_clean() {
                    println!("store verifies clean");
                    0
                } else {
                    eprintln!("error: store verification FAILED");
                    1
                }
            }
            Err(error) => {
                eprintln!("error: verify failed: {error}");
                1
            }
        },
        Some("compact") => match store.compact() {
            Ok(report) => {
                println!(
                    "compacted {} records ({} bytes) -> {} records ({} bytes)",
                    report.records_before,
                    report.bytes_before,
                    report.records_after,
                    report.bytes_after
                );
                0
            }
            Err(error) => {
                eprintln!("error: compact failed: {error}");
                1
            }
        },
        Some(verb @ ("export" | "import")) => {
            let Some(file) = options.names.get(1).map(PathBuf::from) else {
                eprintln!("error: `store {verb}` needs a bundle file\n\n{USAGE}");
                return 2;
            };
            let outcome = if verb == "export" {
                Bundle::export(&store, &file)
            } else {
                Bundle::import(&store, &file)
            };
            match outcome {
                Ok(report) if verb == "export" => {
                    println!("exported {} records to {}", report.records, file.display());
                    0
                }
                Ok(report) => {
                    println!(
                        "imported {} of {} records from {} ({} already present)",
                        report.imported,
                        report.records,
                        file.display(),
                        report.skipped
                    );
                    0
                }
                Err(error) => {
                    eprintln!("error: {verb} failed: {error}");
                    1
                }
            }
        }
        _ => {
            eprintln!("error: `store` needs stats, verify, compact, export or import\n\n{USAGE}");
            2
        }
    }
}

fn print_summary(name: &str, summary: &RunSummary) {
    println!(
        "[{name}] {} scenarios ({} cached, {} executed) in {:.1} s",
        summary.records.len(),
        summary.cached,
        summary.executed,
        summary.wall_ms / 1e3
    );
    // Cells that could not be configured as specified (e.g. no safe
    // TB-Window for the threshold) record a `config_error` metric instead
    // of results; surface them so a sweep cannot silently lose a setup.
    let broken: Vec<&ScenarioRecord> = summary
        .records
        .iter()
        .filter(|r| r.metrics.contains_key("config_error"))
        .collect();
    if !broken.is_empty() {
        println!(
            "[{name}] WARNING: {} scenario(s) failed to configure:",
            broken.len()
        );
        for record in broken {
            println!(
                "[{name}]   {}: {}",
                record.scenario.name,
                record
                    .metrics
                    .get("config_error")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown error")
            );
        }
    }
    for (label, mean) in mean_normalized_by_setup(&summary.records) {
        println!("[{name}]   mean normalised performance, {label}: {mean:.3}");
    }
    if let Some(paths) = &summary.artifacts {
        println!("[{name}] artifacts: {}", paths.json.display());
        println!("[{name}]            {}", paths.csv.display());
    }
}

/// Mean of the `normalized_performance` metric grouped by the `setup` label,
/// in first-seen order — the headline number of every performance campaign.
fn mean_normalized_by_setup(records: &[ScenarioRecord]) -> Vec<(String, f64)> {
    let mut order: Vec<String> = Vec::new();
    let mut sums: std::collections::HashMap<String, (f64, usize)> =
        std::collections::HashMap::new();
    for record in records {
        let (Some(setup), Some(value)) = (
            record.metrics.get("setup").and_then(Value::as_str),
            record
                .metrics
                .get("normalized_performance")
                .and_then(Value::as_f64),
        ) else {
            continue;
        };
        let entry = sums.entry(setup.to_string()).or_insert_with(|| {
            order.push(setup.to_string());
            (0.0, 0)
        });
        entry.0 += value;
        entry.1 += 1;
    }
    order
        .into_iter()
        .map(|label| {
            let (sum, count) = sums[&label];
            (label, sum / count as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_run_flags() {
        let options = parse(&args(&[
            "run",
            "fig10",
            "--full",
            "--instr",
            "5000",
            "--workers",
            "3",
            "--no-cache",
        ]))
        .unwrap();
        assert_eq!(options.command, Command::Run);
        assert_eq!(options.names, vec!["fig10".to_string()]);
        assert!(options.full && options.no_cache);
        assert_eq!(options.instructions_per_core, Some(5000));
        assert_eq!(options.workers, Some(3));
    }

    #[test]
    fn rejects_unknown_options_and_commands() {
        assert!(parse(&args(&["run", "--bogus"])).is_err());
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["bench", "sim"])).is_err());
        assert!(parse(&args(&["store", "stats", "--append", "x.json"])).is_err());
    }

    #[test]
    fn parses_and_validates_channels() {
        let options = parse(&args(&["run", "scaling", "--channels", "4"])).unwrap();
        assert_eq!(options.channels, Some(4));
        assert_eq!(profile_for(&options).channels, 4);
        assert!(parse(&args(&["run", "fig10", "--channels", "3"])).is_err());
        assert!(parse(&args(&["run", "fig10", "--channels", "0"])).is_err());
        assert!(parse(&args(&["run", "fig10", "--channels"])).is_err());
        assert_eq!(
            profile_for(&parse(&args(&["run", "fig10"])).unwrap()).channels,
            1
        );
    }

    #[test]
    fn topology_flags_reject_bad_counts_naming_the_accepted_range() {
        // Both topology knobs share one validator, so a bad count is
        // rejected with identical wording that names the accepted range.
        for flag in ["--channels", "--ranks"] {
            let error = parse(&args(&["run", "fig10", flag, "3"])).unwrap_err();
            assert_eq!(
                error,
                format!("{flag} must be a power of two (1, 2, 4, ...), got 3")
            );
            let error = parse(&args(&["run", "fig10", flag, "0"])).unwrap_err();
            assert_eq!(
                error,
                format!("{flag} must be a power of two (1, 2, 4, ...), got 0")
            );
        }
    }

    #[test]
    fn parses_and_validates_ranks() {
        let options = parse(&args(&["run", "scaling", "--ranks", "2"])).unwrap();
        assert_eq!(options.ranks, Some(2));
        assert_eq!(profile_for(&options).ranks, 2);
        assert!(parse(&args(&["run", "fig10", "--ranks", "3"])).is_err());
        assert!(parse(&args(&["run", "fig10", "--ranks"])).is_err());
        // Unset means "use the organization's own rank count".
        assert_eq!(
            profile_for(&parse(&args(&["run", "fig10"])).unwrap()).ranks,
            0
        );
    }

    #[test]
    fn parses_and_validates_device_profiles() {
        let options = parse(&args(&["run", "fig10", "--profile", "vendor-a"])).unwrap();
        assert_eq!(options.device_profile, Some(DeviceProfile::VendorA));
        assert_eq!(profile_for(&options).device_profile, DeviceProfile::VendorA);
        let error = parse(&args(&["run", "fig10", "--profile", "vendor-z"])).unwrap_err();
        assert!(error.contains("unknown device profile `vendor-z`"));
        assert!(error.contains("jedec-baseline"));
        assert!(parse(&args(&["run", "fig10", "--profile"])).is_err());
        assert_eq!(
            profile_for(&parse(&args(&["run", "fig10"])).unwrap()).device_profile,
            DeviceProfile::JedecBaseline
        );
    }

    #[test]
    fn parses_engine_selection() {
        let options = parse(&args(&["run", "fig10", "--engine", "tick"])).unwrap();
        assert_eq!(options.engine, EngineKind::Tick);
        let options = parse(&args(&["run", "fig10", "--engine", "event"])).unwrap();
        assert_eq!(options.engine, EngineKind::Event);
        assert_eq!(
            parse(&args(&["run", "fig10"])).unwrap().engine,
            EngineKind::Event
        );
        assert!(parse(&args(&["run", "fig10", "--engine", "warp"])).is_err());
        assert!(parse(&args(&["run", "fig10", "--engine"])).is_err());
    }

    #[test]
    fn listing_and_unknown_campaigns_exit_cleanly() {
        assert_eq!(run_cli(&args(&["list"])), 0);
        assert_eq!(run_cli(&args(&["mitigations"])), 0);
        assert_eq!(run_cli(&args(&["attacks"])), 0);
        assert_eq!(run_cli(&args(&["profiles"])), 0);
        assert_eq!(run_cli(&args(&["help"])), 0);
        assert_eq!(run_cli(&args(&["run", "no-such-campaign"])), 2);
        assert_eq!(run_cli(&args(&["run"])), 2);
    }

    #[test]
    fn parses_and_validates_attack_slugs() {
        let options = parse(&args(&["run", "fig10", "--attack", "nsided8"])).unwrap();
        assert_eq!(options.attack, Some(AttackKind::ManySided { sides: 8 }));
        assert_eq!(
            profile_for(&options).attack,
            Some(AttackKind::ManySided { sides: 8 })
        );
        assert!(parse(&args(&["run", "fig10", "--attack", "bogus"])).is_err());
        assert!(parse(&args(&["run", "fig10", "--attack"])).is_err());
        assert_eq!(
            profile_for(&parse(&args(&["run", "fig10"])).unwrap()).attack,
            None
        );
    }
}
