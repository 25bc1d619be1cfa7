//! Composable sweep grids: a plain-data description of scenario axes that
//! expands to a [`Scenario`] batch, parseable from a simple config file.
//!
//! A grid is a list of *cells*.  Each cell names an application workload and
//! optional axes — seeds × channels × durations × mediums — and expands to
//! the cross-product of those axes (seeds outermost, mediums innermost, the
//! order the hard-coded paper grids always used).  The whole grid is the
//! concatenation of its cells' expansions, in file order, so a checked-in
//! grid file reproduces a hand-written `Vec<Scenario>` scenario-for-scenario
//! — the digest-pin tests hold a config file to exactly that standard.
//!
//! # File format
//!
//! A line-oriented `key = value` format with `[section]` headers; `#` starts
//! a comment.  One `[grid]` section holds the defaults, every `[cell.NAME]`
//! section describes one cell:
//!
//! ```text
//! # A seed × channel LPL sweep plus one path-loss Bounce cell.
//! [grid]
//! name = example
//! seconds = 14
//!
//! [cell.lpl]
//! app = lpl
//! interference = 0.18
//! seeds = 1..4
//! channels = 17, 26
//! name = lpl_ch{channel}_seed{seed}
//!
//! [cell.hidden_pairs]
//! app = bounce_pairs
//! pairs = 4
//! seeds = 1, 2
//! medium = path_loss
//! placement = line 30 5
//! cca_dbm = -100
//! name = pairs_{nodes}n_seed{seed}
//! ```
//!
//! Cell keys: `app` (`lpl`, `blink`, `bounce`, `bounce_pairs`, `idle`),
//! `name` (a template over `{seed}`, `{channel}`, `{seconds}`, `{medium}`,
//! `{nodes}`, `{pairs}`), the axes `seeds` (`1..8` or `1, 2, 7`),
//! `channels`, `seconds` (a list makes it an axis), `medium` (a list of
//! kinds makes it an axis), the app knobs `interference` (LPL duty) and
//! `pairs`, and the medium geometry: `range_m`, `positions`
//! (`id:x,y ...`), `placement` (`line SPACING GAP`, resolved against
//! `pairs`), `base` (`unit_disk` or `path_loss`, for mobility), `trace`
//! (`node: T:x,y ...` where `T` is `50%` of the cell duration, `3s`, or
//! `1500000us`; repeatable), and the path-loss model parameters
//! (`tx_power_dbm`, `ref_loss_db`, `exponent`, `shadowing_sigma_db`,
//! `sensitivity_dbm`, `capture_margin_db`, `cca_dbm`).
//!
//! Errors carry the offending line number and name the expected input — a
//! typo'd key or a malformed value fails loudly, never silently.
//!
//! # Example
//!
//! ```
//! use quanto_fleet::GridSpec;
//!
//! let text = "
//! [grid]
//! name = doc
//! seconds = 2
//!
//! [cell.lpl]
//! app = lpl
//! interference = 0.18
//! seeds = 1..2
//! channels = 17, 26
//! name = lpl_ch{channel}_seed{seed}
//! ";
//! let mut grid = GridSpec::parse(text).unwrap();
//! assert_eq!(grid.expand().unwrap().len(), 4); // 2 seeds × 2 channels
//! grid.override_seed_count(1); // what `fleet_sweep --seeds 1` applies
//! let batch = grid.expand().unwrap();
//! assert_eq!(batch.len(), 2);
//! assert_eq!(batch[0].name, "lpl_ch17_seed1");
//! ```

use crate::scenario::{AppSpec, GeometrySpec, MediumSpec, PathLossSpec, Scenario, TraceSpec};
use hw_model::SimDuration;
use std::fmt;

/// Why a grid file failed to parse or expand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError {
    /// 1-based line of the offending input, when attributable to one.
    pub line: Option<usize>,
    /// What went wrong and what was expected.
    pub message: String,
}

impl GridError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        GridError {
            line: Some(line),
            message: message.into(),
        }
    }

    fn general(message: impl Into<String>) -> Self {
        GridError {
            line: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for GridError {}

/// The numeric sweep overrides (`--seconds`, `--seeds`, `--stress PAIRS`):
/// what `fleet_sweep` applies to a grid, and what the dist `job` message
/// and the serve `submit` request carry (their one wire codec lives in
/// [`crate::wire`]), so every consumer expands the same scenarios.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GridOverrides {
    /// Replaces the grid-level default duration (cells with their own
    /// `seconds` keep them).
    pub seconds: Option<f64>,
    /// Replaces every non-empty seed axis with `1..=n`.
    pub seed_count: Option<u64>,
    /// Replaces every bounce-pairs cell's pair count.
    pub pairs: Option<u16>,
}

impl GridOverrides {
    /// Applies the overrides to a parsed grid, in the fixed order every
    /// consumer shares.  Refuses what the CLI refuses, before touching the
    /// grid: `seconds` must be finite and positive, `seeds` at least 1 and
    /// `pairs` in `1..=32767`.
    pub fn apply(&self, spec: &mut GridSpec) -> Result<(), GridError> {
        if let Some(seconds) = self.seconds.filter(|s| !(s.is_finite() && *s > 0.0)) {
            return Err(GridError::general(format!(
                "seconds override must be finite and positive, got {seconds}"
            )));
        }
        if self.seed_count == Some(0) {
            return Err(GridError::general("seeds override must be at least 1"));
        }
        if let Some(pairs) = self.pairs.filter(|p| !(1..=32767).contains(p)) {
            return Err(GridError::general(format!(
                "pairs override must be in 1..=32767, got {pairs}"
            )));
        }
        if let Some(seconds) = self.seconds {
            spec.override_seconds(seconds);
        }
        if let Some(n) = self.seed_count {
            spec.override_seed_count(n);
        }
        if let Some(pairs) = self.pairs {
            spec.override_pairs(pairs);
        }
        Ok(())
    }
}

/// How a cell places its nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Explicit `(node id, x, y)` coordinates.
    Explicit(Vec<(u32, f64, f64)>),
    /// Bounce pairs strung along a line: pair `k`'s initiator sits at
    /// `spacing·k`, its partner `gap` meters further.  Resolved against the
    /// cell's `pairs` at expansion time, so a pairs override rescales the
    /// layout.
    Line {
        /// Distance between consecutive pairs, meters.
        spacing_m: f64,
        /// Distance between the two partners of a pair, meters.
        gap_m: f64,
    },
}

/// One waypoint time in a mobility trace template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceTime {
    /// A percentage of the cell's duration (resolved at expansion).
    Percent(u64),
    /// An absolute offset in microseconds.
    Micros(u64),
}

/// One node's mobility trace as grid data: waypoint times may be relative
/// to the (possibly swept) cell duration.
pub type TraceTemplate = (u32, Vec<(TraceTime, f64, f64)>);

/// Which radio medium kind a cell sweeps through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediumKind {
    /// Explicit-topology ideal ether.
    Ideal,
    /// Positions plus a hard range.
    UnitDisk,
    /// Log-distance path loss.
    PathLoss,
    /// Waypoint traces over a geometric base.
    Mobility,
}

impl MediumKind {
    fn parse(token: &str) -> Option<MediumKind> {
        Some(match token {
            "ideal" => MediumKind::Ideal,
            "unit_disk" => MediumKind::UnitDisk,
            "path_loss" => MediumKind::PathLoss,
            "mobility" => MediumKind::Mobility,
            _ => return None,
        })
    }

    fn name(&self) -> &'static str {
        match self {
            MediumKind::Ideal => "ideal",
            MediumKind::UnitDisk => "unit_disk",
            MediumKind::PathLoss => "path_loss",
            MediumKind::Mobility => "mobility",
        }
    }
}

/// One cell of a grid: an app crossed with its axes.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// The section label (for error messages).
    pub label: String,
    /// The application workload, with the knobs the axes do not cover
    /// (LPL interference, the pair count).
    pub app: AppSpec,
    /// Scenario-name template (`{seed}`, `{channel}`, `{seconds}`,
    /// `{medium}`, `{nodes}`, `{pairs}`); `None` derives a name from the
    /// app and axes.
    pub name: Option<String>,
    /// The seed axis; empty runs the app's default (paper) seeding.
    pub seeds: Vec<u64>,
    /// The channel axis; empty keeps the app's default channel.
    pub channels: Vec<u8>,
    /// The duration axis, seconds; empty inherits the grid default.
    pub seconds: Vec<f64>,
    /// The medium axis; empty means ideal.
    pub mediums: Vec<MediumKind>,
    /// Geometry shared by the cell's geometric mediums.
    pub range_m: Option<f64>,
    /// Node placement shared by the cell's geometric mediums.
    pub placement: Placement,
    /// The path-loss model (used by `path_loss` and a path-loss mobility
    /// base).
    pub path_loss: PathLossSpec,
    /// The mobility base geometry (`None` when the cell has no mobility
    /// medium).
    pub base: Option<GeometrySpec>,
    /// Mobility waypoint traces.
    pub traces: Vec<TraceTemplate>,
}

/// A whole sweep grid: defaults plus cells, expandable to a scenario batch.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Display name of the grid.
    pub name: String,
    /// Default cell duration, seconds.
    pub seconds: f64,
    /// The cells, in file order.
    pub cells: Vec<CellSpec>,
}

impl GridSpec {
    /// Parses a grid config file (see the module docs for the format).
    pub fn parse(text: &str) -> Result<GridSpec, GridError> {
        Parser::new().parse(text)
    }

    /// Replaces the grid-level default duration (cells with their own
    /// `seconds` keep them) — the `--seconds` override.
    pub fn override_seconds(&mut self, seconds: f64) {
        self.seconds = seconds;
    }

    /// Replaces every non-empty seed axis with `1..=n` — the `--seeds`
    /// override.  Cells without a seed axis stay on their default seeding.
    pub fn override_seed_count(&mut self, n: u64) {
        for cell in &mut self.cells {
            if !cell.seeds.is_empty() {
                cell.seeds = (1..=n).collect();
            }
        }
    }

    /// Replaces the pair count of every `bounce_pairs` cell — the
    /// `--stress PAIRS` override.
    pub fn override_pairs(&mut self, pairs: u16) {
        for cell in &mut self.cells {
            if let AppSpec::BouncePairs { pairs: p } = &mut cell.app {
                *p = pairs;
            }
        }
    }

    /// Expands the grid to its scenario batch: every cell's axis
    /// cross-product (seeds ⊃ channels ⊃ durations ⊃ mediums), cells in
    /// order.  Duplicate scenario names are an error — they would silently
    /// shadow each other in report lookups.
    pub fn expand(&self) -> Result<Vec<Scenario>, GridError> {
        if self.seconds <= 0.0 {
            return Err(GridError::general(format!(
                "grid seconds must be positive, got {}",
                self.seconds
            )));
        }
        let mut batch = Vec::new();
        for cell in &self.cells {
            cell.expand_into(self.seconds, &mut batch)?;
        }
        let mut seen = std::collections::HashSet::new();
        for s in &batch {
            if !seen.insert(s.name.clone()) {
                return Err(GridError::general(format!(
                    "duplicate scenario name {:?} — give the cells distinct name templates \
                     (placeholders: {{seed}}, {{channel}}, {{seconds}}, {{medium}})",
                    s.name
                )));
            }
        }
        Ok(batch)
    }
}

impl CellSpec {
    fn err(&self, message: impl Into<String>) -> GridError {
        GridError::general(format!("cell {:?}: {}", self.label, message.into()))
    }

    /// The cell's node count (for `{nodes}` and line placements).
    fn node_count(&self) -> u32 {
        match self.app {
            AppSpec::LplListener { .. } | AppSpec::Blink | AppSpec::Idle => 1,
            AppSpec::Bounce => 2,
            AppSpec::BouncePairs { pairs } => 2 * pairs as u32,
        }
    }

    fn positions(&self) -> Result<Vec<(u32, f64, f64)>, GridError> {
        match &self.placement {
            Placement::Explicit(list) => Ok(list.clone()),
            Placement::Line { spacing_m, gap_m } => {
                let AppSpec::BouncePairs { pairs } = self.app else {
                    return Err(self.err(
                        "placement = line needs app = bounce_pairs (the line is built \
                         from the pair count)",
                    ));
                };
                let mut positions = Vec::with_capacity(2 * pairs as usize);
                for k in 0..pairs as u32 {
                    let x = spacing_m * k as f64;
                    positions.push((2 * k + 1, x, 0.0));
                    positions.push((2 * k + 2, x + gap_m, 0.0));
                }
                Ok(positions)
            }
        }
    }

    fn medium_spec(
        &self,
        kind: MediumKind,
        duration: SimDuration,
    ) -> Result<MediumSpec, GridError> {
        let spec = match kind {
            MediumKind::Ideal => MediumSpec::Ideal,
            MediumKind::UnitDisk => MediumSpec::UnitDisk {
                range_m: self
                    .range_m
                    .ok_or_else(|| self.err("medium = unit_disk needs range_m"))?,
                positions: self.positions()?,
            },
            MediumKind::PathLoss => MediumSpec::PathLoss {
                model: self.path_loss.clone(),
                positions: self.positions()?,
            },
            MediumKind::Mobility => {
                let base = self.base.clone().ok_or_else(|| {
                    self.err("medium = mobility needs base = unit_disk or path_loss")
                })?;
                let us = duration.as_micros();
                let traces: Vec<TraceSpec> = self
                    .traces
                    .iter()
                    .map(|(node, waypoints)| {
                        let resolved = waypoints
                            .iter()
                            .map(|(t, x, y)| {
                                let at = match t {
                                    TraceTime::Percent(p) => us * p / 100,
                                    TraceTime::Micros(abs) => *abs,
                                };
                                (at, *x, *y)
                            })
                            .collect();
                        (*node, resolved)
                    })
                    .collect();
                MediumSpec::Mobility {
                    base,
                    positions: self.positions()?,
                    traces,
                }
            }
        };
        Ok(spec)
    }

    fn expand_into(
        &self,
        default_seconds: f64,
        batch: &mut Vec<Scenario>,
    ) -> Result<(), GridError> {
        for &channel in &self.channels {
            if !(11..=26).contains(&channel) {
                return Err(self.err(format!("802.15.4 channels are 11–26, got {channel}")));
            }
        }
        let seeds: Vec<Option<u64>> = if self.seeds.is_empty() {
            vec![None]
        } else {
            self.seeds.iter().copied().map(Some).collect()
        };
        let channels: Vec<Option<u8>> = if self.channels.is_empty() {
            vec![None]
        } else {
            self.channels.iter().copied().map(Some).collect()
        };
        let durations: Vec<f64> = if self.seconds.is_empty() {
            vec![default_seconds]
        } else {
            self.seconds.clone()
        };
        let mediums: Vec<MediumKind> = if self.mediums.is_empty() {
            vec![MediumKind::Ideal]
        } else {
            self.mediums.clone()
        };
        for secs in &durations {
            if *secs <= 0.0 {
                return Err(self.err(format!("seconds must be positive, got {secs}")));
            }
        }
        for &seed in &seeds {
            for &channel in &channels {
                for &secs in &durations {
                    let duration = SimDuration::from_micros((secs * 1e6).round() as u64);
                    for &medium in &mediums {
                        batch.push(self.build(seed, channel, duration, medium)?);
                    }
                }
            }
        }
        Ok(())
    }

    fn build(
        &self,
        seed: Option<u64>,
        channel: Option<u8>,
        duration: SimDuration,
        medium: MediumKind,
    ) -> Result<Scenario, GridError> {
        let mut scenario = match self.app {
            AppSpec::LplListener { interference_duty } => {
                Scenario::lpl(channel.unwrap_or(26), interference_duty, duration)
            }
            AppSpec::Blink => Scenario::blink(duration),
            AppSpec::Bounce => Scenario::bounce(duration),
            AppSpec::BouncePairs { pairs } => Scenario::bounce_pairs(pairs, duration),
            AppSpec::Idle => Scenario::idle(duration),
        };
        if let Some(c) = channel {
            scenario.channel = c;
        }
        if let Some(s) = seed {
            scenario = scenario.with_seed(s);
        }
        if medium != MediumKind::Ideal {
            scenario = scenario.with_medium(self.medium_spec(medium, duration)?);
        }
        let name = match &self.name {
            Some(template) => self.render_name(template, seed, channel, duration, medium)?,
            None => {
                let mut name = scenario.name.clone();
                if let Some(s) = seed {
                    name.push_str(&format!("_seed{s}"));
                }
                name
            }
        };
        Ok(scenario.named(name))
    }

    fn render_name(
        &self,
        template: &str,
        seed: Option<u64>,
        channel: Option<u8>,
        duration: SimDuration,
        medium: MediumKind,
    ) -> Result<String, GridError> {
        let mut out = String::with_capacity(template.len());
        let mut rest = template;
        while let Some(open) = rest.find('{') {
            out.push_str(&rest[..open]);
            let Some(close) = rest[open..].find('}') else {
                return Err(self.err(format!("unclosed {{ in name template {template:?}")));
            };
            let key = &rest[open + 1..open + close];
            match key {
                "seed" => match seed {
                    Some(s) => out.push_str(&s.to_string()),
                    None => {
                        return Err(self.err(format!(
                            "name template {template:?} uses {{seed}} but the cell has no \
                             seeds axis"
                        )))
                    }
                },
                "channel" => {
                    let c = channel.unwrap_or(26);
                    out.push_str(&c.to_string());
                }
                "seconds" => out.push_str(&format!("{}", duration.as_secs_f64())),
                "medium" => out.push_str(medium.name()),
                "nodes" => out.push_str(&self.node_count().to_string()),
                "pairs" => match self.app {
                    AppSpec::BouncePairs { pairs } => out.push_str(&pairs.to_string()),
                    _ => {
                        return Err(self.err(format!(
                            "name template {template:?} uses {{pairs}} but the app is not \
                             bounce_pairs"
                        )))
                    }
                },
                other => {
                    return Err(self.err(format!(
                        "unknown placeholder {{{other}}} in name template {template:?} \
                         (expected seed, channel, seconds, medium, nodes or pairs)"
                    )))
                }
            }
            rest = &rest[open + close + 1..];
        }
        out.push_str(rest);
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------

/// A cell section mid-parse: every key optional until assembly.
struct RawCell {
    label: String,
    header_line: usize,
    app: Option<(String, usize)>,
    name: Option<String>,
    seeds: Vec<u64>,
    channels: Vec<u8>,
    seconds: Vec<f64>,
    interference: Option<f64>,
    pairs: Option<u16>,
    mediums: Vec<MediumKind>,
    base: Option<(String, usize)>,
    range_m: Option<f64>,
    positions: Option<Vec<(u32, f64, f64)>>,
    placement_line: Option<(f64, f64)>,
    traces: Vec<TraceTemplate>,
    path_loss: PathLossSpec,
    path_loss_touched: bool,
}

impl RawCell {
    fn new(label: String, header_line: usize) -> Self {
        RawCell {
            label,
            header_line,
            app: None,
            name: None,
            seeds: Vec::new(),
            channels: Vec::new(),
            seconds: Vec::new(),
            interference: None,
            pairs: None,
            mediums: Vec::new(),
            base: None,
            range_m: None,
            positions: None,
            placement_line: None,
            traces: Vec::new(),
            path_loss: PathLossSpec::default(),
            path_loss_touched: false,
        }
    }

    fn assemble(self) -> Result<CellSpec, GridError> {
        let line = self.header_line;
        let err = |msg: String| GridError::at(line, format!("cell {:?}: {msg}", self.label));
        let Some((app_token, app_line)) = self.app else {
            return Err(err(
                "missing app (expected app = lpl | blink | bounce | bounce_pairs | idle)".into(),
            ));
        };
        let app = match app_token.as_str() {
            "lpl" => AppSpec::LplListener {
                interference_duty: self.interference.unwrap_or(0.0),
            },
            "blink" => AppSpec::Blink,
            "bounce" => AppSpec::Bounce,
            "bounce_pairs" => {
                let pairs = self
                    .pairs
                    .ok_or_else(|| err("app = bounce_pairs needs pairs = N (1..=32767)".into()))?;
                AppSpec::BouncePairs { pairs }
            }
            "idle" => AppSpec::Idle,
            other => {
                return Err(GridError::at(
                    app_line,
                    format!(
                        "cell {:?}: unknown app {other:?} (expected lpl, blink, bounce, \
                         bounce_pairs or idle)",
                        self.label
                    ),
                ))
            }
        };
        if self.interference.is_some() && !matches!(app, AppSpec::LplListener { .. }) {
            return Err(err("interference only applies to app = lpl".into()));
        }
        if self.pairs.is_some() && !matches!(app, AppSpec::BouncePairs { .. }) {
            return Err(err("pairs only applies to app = bounce_pairs".into()));
        }
        let uses_mobility = self.mediums.contains(&MediumKind::Mobility);
        let base = match (&self.base, uses_mobility) {
            (Some((token, base_line)), true) => Some(match token.as_str() {
                "unit_disk" => GeometrySpec::UnitDisk {
                    range_m: self
                        .range_m
                        .ok_or_else(|| err("base = unit_disk needs range_m".into()))?,
                },
                "path_loss" => GeometrySpec::PathLoss(self.path_loss.clone()),
                other => {
                    return Err(GridError::at(
                        *base_line,
                        format!(
                            "cell {:?}: unknown mobility base {other:?} (expected unit_disk \
                             or path_loss)",
                            self.label
                        ),
                    ))
                }
            }),
            (Some(_), false) => {
                return Err(err("base only applies to medium = mobility".into()));
            }
            (None, _) => None,
        };
        if !self.traces.is_empty() && !uses_mobility {
            return Err(err("trace only applies to medium = mobility".into()));
        }
        let geometric = self.mediums.iter().any(|m| *m != MediumKind::Ideal);
        if !geometric {
            if self.range_m.is_some() {
                return Err(err(
                    "range_m given but no geometric medium (add medium = unit_disk or \
                     mobility)"
                        .into(),
                ));
            }
            if self.path_loss_touched {
                return Err(err(
                    "path-loss parameters given but no path_loss medium".into()
                ));
            }
            if self.positions.is_some() || self.placement_line.is_some() {
                return Err(err(
                    "positions/placement given but no geometric medium".into()
                ));
            }
        }
        let placement = match (self.positions, self.placement_line) {
            (Some(_), Some(_)) => {
                return Err(err("give either positions or placement, not both".into()))
            }
            (Some(list), None) => Placement::Explicit(list),
            (None, Some((spacing_m, gap_m))) => Placement::Line { spacing_m, gap_m },
            (None, None) => Placement::Explicit(Vec::new()),
        };
        Ok(CellSpec {
            label: self.label,
            app,
            name: self.name,
            seeds: self.seeds,
            channels: self.channels,
            seconds: self.seconds,
            mediums: self.mediums,
            range_m: self.range_m,
            placement,
            path_loss: self.path_loss,
            base,
            traces: self.traces,
        })
    }
}

enum Section {
    None,
    Grid,
    Cell(Box<RawCell>),
}

struct Parser {
    name: Option<String>,
    seconds: Option<f64>,
    cells: Vec<CellSpec>,
    section: Section,
}

impl Parser {
    fn new() -> Self {
        Parser {
            name: None,
            seconds: None,
            cells: Vec::new(),
            section: Section::None,
        }
    }

    fn close_section(&mut self) -> Result<(), GridError> {
        if let Section::Cell(raw) = std::mem::replace(&mut self.section, Section::None) {
            self.cells.push(raw.assemble()?);
        }
        Ok(())
    }

    fn parse(mut self, text: &str) -> Result<GridSpec, GridError> {
        for (i, raw_line) in text.lines().enumerate() {
            let n = i + 1;
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let Some(header) = header.strip_suffix(']') else {
                    return Err(GridError::at(
                        n,
                        format!("malformed section header {line:?}"),
                    ));
                };
                self.close_section()?;
                if header == "grid" {
                    self.section = Section::Grid;
                } else if let Some(label) = header.strip_prefix("cell.") {
                    if label.is_empty() {
                        return Err(GridError::at(n, "empty cell label in [cell.]".to_string()));
                    }
                    self.section = Section::Cell(Box::new(RawCell::new(label.to_string(), n)));
                } else {
                    return Err(GridError::at(
                        n,
                        format!("unknown section [{header}] (expected [grid] or [cell.NAME])"),
                    ));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(GridError::at(
                    n,
                    format!("expected key = value or a [section] header, got {line:?}"),
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return Err(GridError::at(n, format!("key {key:?} has an empty value")));
            }
            match &mut self.section {
                Section::None => {
                    return Err(GridError::at(
                        n,
                        format!("key {key:?} outside any section (start with [grid])"),
                    ))
                }
                Section::Grid => match key {
                    "name" => self.name = Some(value.to_string()),
                    "seconds" => self.seconds = Some(parse_f64(n, key, value)?),
                    other => {
                        return Err(GridError::at(
                            n,
                            format!("unknown [grid] key {other:?} (expected name or seconds)"),
                        ))
                    }
                },
                Section::Cell(cell) => parse_cell_key(cell, n, key, value)?,
            }
        }
        self.close_section()?;
        let grid = GridSpec {
            name: self.name.unwrap_or_else(|| "grid".to_string()),
            seconds: self.seconds.unwrap_or(14.0),
            cells: self.cells,
        };
        if grid.cells.is_empty() {
            return Err(GridError::general(
                "grid has no [cell.NAME] sections — nothing to run",
            ));
        }
        Ok(grid)
    }
}

fn parse_cell_key(cell: &mut RawCell, n: usize, key: &str, value: &str) -> Result<(), GridError> {
    match key {
        "app" => cell.app = Some((value.to_string(), n)),
        "name" => cell.name = Some(value.to_string()),
        "seeds" => cell.seeds = parse_u64_list(n, key, value)?,
        "channels" => {
            cell.channels = parse_u64_list(n, key, value)?
                .into_iter()
                .map(|c| {
                    u8::try_from(c).map_err(|_| {
                        GridError::at(n, format!("channel {c} does not fit in a byte"))
                    })
                })
                .collect::<Result<_, _>>()?
        }
        "seconds" => {
            cell.seconds = value
                .split(',')
                .map(|tok| parse_f64(n, key, tok.trim()))
                .collect::<Result<_, _>>()?
        }
        "interference" => {
            let duty = parse_f64(n, key, value)?;
            if !(0.0..=1.0).contains(&duty) {
                return Err(GridError::at(
                    n,
                    format!("interference is a duty fraction in 0..=1, got {duty}"),
                ));
            }
            cell.interference = Some(duty);
        }
        "pairs" => {
            let pairs = parse_u64(n, key, value)?;
            if !(1..=32767).contains(&pairs) {
                return Err(GridError::at(
                    n,
                    format!("pairs must be in 1..=32767, got {pairs}"),
                ));
            }
            cell.pairs = Some(pairs as u16);
        }
        "medium" => {
            cell.mediums = value
                .split(',')
                .map(|tok| {
                    let tok = tok.trim();
                    MediumKind::parse(tok).ok_or_else(|| {
                        GridError::at(
                            n,
                            format!(
                                "unknown medium {tok:?} (expected ideal, unit_disk, path_loss \
                                 or mobility)"
                            ),
                        )
                    })
                })
                .collect::<Result<_, _>>()?
        }
        "base" => cell.base = Some((value.to_string(), n)),
        "range_m" => cell.range_m = Some(parse_f64(n, key, value)?),
        "positions" => cell.positions = Some(parse_positions(n, value)?),
        "placement" => {
            let tokens: Vec<&str> = value.split_whitespace().collect();
            match tokens.as_slice() {
                ["line", spacing, gap] => {
                    cell.placement_line =
                        Some((parse_f64(n, key, spacing)?, parse_f64(n, key, gap)?))
                }
                _ => {
                    return Err(GridError::at(
                        n,
                        format!("placement must be `line SPACING_M GAP_M`, got {value:?}"),
                    ))
                }
            }
        }
        "trace" => cell.traces.push(parse_trace(n, value)?),
        "tx_power_dbm" | "ref_loss_db" | "exponent" | "shadowing_sigma_db" | "sensitivity_dbm"
        | "capture_margin_db" | "cca_dbm" => {
            let v = parse_f64(n, key, value)?;
            let p = &mut cell.path_loss;
            match key {
                "tx_power_dbm" => p.tx_power_dbm = v,
                "ref_loss_db" => p.ref_loss_db = v,
                "exponent" => p.exponent = v,
                "shadowing_sigma_db" => p.shadowing_sigma_db = v,
                "sensitivity_dbm" => p.sensitivity_dbm = v,
                "capture_margin_db" => p.capture_margin_db = v,
                _ => p.cca_threshold_dbm = Some(v),
            }
            cell.path_loss_touched = true;
        }
        other => {
            return Err(GridError::at(
                n,
                format!(
                    "unknown cell key {other:?} (expected app, name, seeds, channels, seconds, \
                     interference, pairs, medium, base, range_m, positions, placement, trace, \
                     or a path-loss parameter)"
                ),
            ))
        }
    }
    Ok(())
}

fn parse_f64(n: usize, key: &str, value: &str) -> Result<f64, GridError> {
    value
        .parse()
        .map_err(|_| GridError::at(n, format!("{key} expects a number, got {value:?}")))
}

fn parse_u64(n: usize, key: &str, value: &str) -> Result<u64, GridError> {
    value
        .parse()
        .map_err(|_| GridError::at(n, format!("{key} expects an integer, got {value:?}")))
}

/// `1..4` (inclusive range) or `1, 2, 7`.
fn parse_u64_list(n: usize, key: &str, value: &str) -> Result<Vec<u64>, GridError> {
    if let Some((lo, hi)) = value.split_once("..") {
        let lo = parse_u64(n, key, lo.trim())?;
        let hi = parse_u64(n, key, hi.trim())?;
        if hi < lo {
            return Err(GridError::at(
                n,
                format!("{key} range {lo}..{hi} is empty (ranges are inclusive, low..high)"),
            ));
        }
        return Ok((lo..=hi).collect());
    }
    value
        .split(',')
        .map(|tok| parse_u64(n, key, tok.trim()))
        .collect()
}

/// `1:0,0 4:8.5,0` — whitespace-separated `id:x,y` placements.
fn parse_positions(n: usize, value: &str) -> Result<Vec<(u32, f64, f64)>, GridError> {
    value
        .split_whitespace()
        .map(|tok| {
            let bad = || GridError::at(n, format!("positions expect `id:x,y` tokens, got {tok:?}"));
            let (id, xy) = tok.split_once(':').ok_or_else(bad)?;
            let (x, y) = xy.split_once(',').ok_or_else(bad)?;
            let id: u32 = id.parse().map_err(|_| bad())?;
            if id == 0 || id > quanto_core::NodeId::MAX_LABEL_ORIGIN {
                return Err(GridError::at(
                    n,
                    format!(
                        "node id {id} is out of range (usable ids are 1..={}; ids above 254 \
                         switch the cell to the v2 log encoding)",
                        quanto_core::NodeId::MAX_LABEL_ORIGIN
                    ),
                ));
            }
            Ok((
                id,
                x.parse().map_err(|_| bad())?,
                y.parse().map_err(|_| bad())?,
            ))
        })
        .collect()
}

/// `4: 0%:5,0 50%:30,0 3s:9,0 1500000us:0,0` — one node's waypoints.
fn parse_trace(n: usize, value: &str) -> Result<TraceTemplate, GridError> {
    let (node, rest) = value.split_once(':').ok_or_else(|| {
        GridError::at(n, format!("trace expects `node: T:x,y ...`, got {value:?}"))
    })?;
    let node: u32 = node
        .trim()
        .parse()
        .map_err(|_| GridError::at(n, format!("trace node id must be an integer, got {node:?}")))?;
    let mut waypoints = Vec::new();
    for tok in rest.split_whitespace() {
        let bad = || {
            GridError::at(
                n,
                format!(
                    "trace waypoints are `T:x,y` with T like `50%`, `3s` or `1500000us`, \
                     got {tok:?}"
                ),
            )
        };
        let (t, xy) = tok.split_once(':').ok_or_else(bad)?;
        let (x, y) = xy.split_once(',').ok_or_else(bad)?;
        let time = if let Some(p) = t.strip_suffix('%') {
            let p: u64 = p.parse().map_err(|_| bad())?;
            if p > 100 {
                return Err(GridError::at(
                    n,
                    format!("trace waypoint {p}% is past the end of the run"),
                ));
            }
            TraceTime::Percent(p)
        } else if let Some(us) = t.strip_suffix("us") {
            TraceTime::Micros(us.parse().map_err(|_| bad())?)
        } else if let Some(s) = t.strip_suffix('s') {
            let secs: f64 = s.parse().map_err(|_| bad())?;
            TraceTime::Micros((secs * 1e6).round() as u64)
        } else {
            return Err(bad());
        };
        waypoints.push((
            time,
            x.parse().map_err(|_| bad())?,
            y.parse().map_err(|_| bad())?,
        ));
    }
    if waypoints.is_empty() {
        return Err(GridError::at(n, "trace has no waypoints".to_string()));
    }
    Ok((node, waypoints))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_grid_parses_and_expands() {
        let grid = GridSpec::parse(
            "[grid]\nname = tiny\nseconds = 2\n\n[cell.lpl]\napp = lpl\ninterference = 0.18\n\
             seeds = 1..2\nchannels = 17, 26\nname = lpl_ch{channel}_seed{seed}\n",
        )
        .unwrap();
        assert_eq!(grid.name, "tiny");
        let batch = grid.expand().unwrap();
        assert_eq!(batch.len(), 4);
        // Seeds outermost, channels inner — the paper grids' order.
        assert_eq!(batch[0].name, "lpl_ch17_seed1");
        assert_eq!(batch[1].name, "lpl_ch26_seed1");
        assert_eq!(batch[2].name, "lpl_ch17_seed2");
        assert!(batch.iter().all(|s| s.seed_nodes));
    }

    #[test]
    fn medium_and_duration_axes_expand_innermost() {
        let grid = GridSpec::parse(
            "[grid]\nseconds = 1\n[cell.b]\napp = bounce\nseconds = 1, 2\n\
             medium = ideal, unit_disk\nrange_m = 10\npositions = 1:0,0 4:8,0\n\
             name = b_{seconds}s_{medium}\n",
        )
        .unwrap();
        let names: Vec<String> = grid.expand().unwrap().into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "b_1s_ideal",
                "b_1s_unit_disk",
                "b_2s_ideal",
                "b_2s_unit_disk"
            ]
        );
    }

    #[test]
    fn line_placement_reproduces_the_stress_layout() {
        let grid = GridSpec::parse(
            "[grid]\nseconds = 3\n[cell.s]\napp = bounce_pairs\npairs = 2\nseeds = 7, 9\n\
             medium = path_loss\nplacement = line 30 5\n\
             name = path_loss_stress_{nodes}n_seed{seed}\n",
        )
        .unwrap();
        let batch = grid.expand().unwrap();
        let expected: Vec<Scenario> = [7, 9]
            .iter()
            .map(|&seed| crate::scenarios::path_loss_stress(2, seed, SimDuration::from_secs(3)))
            .collect();
        assert_eq!(batch, expected);
    }

    #[test]
    fn percent_traces_resolve_against_the_cell_duration() {
        let grid = GridSpec::parse(
            "[grid]\nseconds = 4\n[cell.m]\napp = bounce\nmedium = mobility\nbase = unit_disk\n\
             range_m = 10\npositions = 1:0,0\ntrace = 4: 0%:5,0 50%:30,0 100%:5,0\n",
        )
        .unwrap();
        let batch = grid.expand().unwrap();
        let MediumSpec::Mobility { traces, .. } = &batch[0].medium else {
            panic!("expected a mobility medium, got {:?}", batch[0].medium);
        };
        assert_eq!(
            traces[0],
            (
                4,
                vec![(0, 5.0, 0.0), (2_000_000, 30.0, 0.0), (4_000_000, 5.0, 0.0)]
            )
        );
    }

    #[test]
    fn overrides_rewrite_the_axes() {
        let mut grid = GridSpec::parse(
            "[grid]\nseconds = 14\n[cell.lpl]\napp = lpl\nseeds = 1..4\n\
             name = lpl_ch{channel}_seed{seed}\n[cell.blink]\napp = blink\n",
        )
        .unwrap();
        grid.override_seconds(2.0);
        grid.override_seed_count(2);
        let batch = grid.expand().unwrap();
        assert_eq!(batch.len(), 3);
        assert!(batch
            .iter()
            .all(|s| s.duration == SimDuration::from_secs(2)));
        assert_eq!(batch[1].name, "lpl_ch26_seed2");
        assert_eq!(batch[2].name, "blink_2s", "blink derives its default name");
    }

    #[test]
    fn errors_carry_line_numbers_and_expectations() {
        let cases: &[(&str, &str, Option<usize>)] = &[
            ("[grid]\nsecnods = 2\n", "unknown [grid] key", Some(2)),
            (
                "[grid]\nseconds = 2\n[cell.x]\napp = warp\n",
                "unknown app",
                Some(4),
            ),
            (
                "[grid]\n[cell.x]\napp = lpl\nrang_m = 4\n",
                "unknown cell key",
                Some(4),
            ),
            (
                "[grid]\n[cell.x]\napp = bounce\ninterference = 0.5\n",
                "only applies to app = lpl",
                Some(2),
            ),
            (
                "[grid]\n[cell.x]\napp = bounce_pairs\n",
                "needs pairs",
                Some(2),
            ),
            ("[grid]\nseconds = 2\n", "no [cell.NAME] sections", None),
            (
                "[grid]\n[cell.x]\napp = lpl\nseeds = 9..3\n",
                "range 9..3 is empty",
                Some(4),
            ),
            (
                "[grid]\n[cell.x]\napp = bounce\nmedium = unit_disk\n",
                "needs range_m",
                None,
            ),
            (
                "[grid]\n[cell.x]\napp = lpl\nchannels = 5\n",
                "channels are 11–26",
                None,
            ),
        ];
        for (text, needle, line) in cases {
            let err = GridSpec::parse(text)
                .and_then(|g| g.expand().map(|_| ()))
                .expect_err(&format!("{text:?} must fail"));
            assert!(
                err.message.contains(needle),
                "error {err} should mention {needle:?}"
            );
            if let Some(line) = line {
                assert_eq!(err.line, Some(*line), "{err}");
            }
        }
    }

    #[test]
    fn duplicate_scenario_names_are_rejected() {
        let grid = GridSpec::parse(
            "[grid]\nseconds = 1\n[cell.a]\napp = idle\nname = same\n\
             [cell.b]\napp = idle\nname = same\n",
        )
        .unwrap();
        let err = grid.expand().unwrap_err();
        assert!(err.message.contains("duplicate scenario name"), "{err}");
    }

    #[test]
    fn cca_and_path_loss_keys_reach_the_model() {
        let grid = GridSpec::parse(
            "[grid]\nseconds = 1\n[cell.p]\napp = bounce\nmedium = path_loss\n\
             positions = 1:0,0 4:10,0\nexponent = 2.5\ncca_dbm = -101\n",
        )
        .unwrap();
        let batch = grid.expand().unwrap();
        let MediumSpec::PathLoss { model, .. } = &batch[0].medium else {
            panic!("expected path loss");
        };
        assert_eq!(model.exponent, 2.5);
        assert_eq!(model.cca_threshold_dbm, Some(-101.0));
    }
}
