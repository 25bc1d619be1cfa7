//! Golden outputs of the paper harness: each `fig*`/`table*` binary, run
//! with its default arguments, must print exactly the stdout checked in
//! under `tests/golden/<name>.txt`.
//!
//! The binaries print every number the reproduction reports against the
//! paper, so a change that moves any of them — a power model, an
//! integrator, an analysis step — shows here as a byte diff.  A change
//! that means to move them regenerates the files with
//! `scripts/bless_paper_outputs.sh` and says why in CHANGES.md.

use std::path::Path;
use std::process::Command;

fn check(name: &str, exe: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("{name}: failed to start {exe}: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let want = std::fs::read(&golden)
        .unwrap_or_else(|e| panic!("{name}: cannot read {}: {e}", golden.display()));
    if out.stdout == want {
        return;
    }
    let got = String::from_utf8_lossy(&out.stdout);
    let want = String::from_utf8_lossy(&want);
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{name}: stdout differs from {} at line {}\n   got: {:?}\n  want: {:?}",
        golden.display(),
        line + 1,
        got.lines().nth(line).unwrap_or("<end of output>"),
        want.lines().nth(line).unwrap_or("<end of output>"),
    );
}

macro_rules! golden {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            check(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
        }
    )*};
}

golden!(fig10, fig11, fig12, fig13, fig14, fig15, fig16, table1, table2, table3, table4, table5);
