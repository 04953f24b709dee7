//! Pins the trailing `JSON` line every figure and table bin prints at
//! `--quick`: field order, float formatting and `null`s.  Bins whose rows
//! are computed are pinned by the FNV-1a hash and length of the line;
//! `ablations` prints host timings, so only its shape (every number
//! replaced by `0`) is pinned.  `scaling_kernels` is all
//! timings and slow in debug builds; compare its `fingerprint`s by hand.

use std::process::Command;

fn json_line(exe: &str) -> String {
    let out = Command::new(exe).arg("--quick").output().expect("run the bin");
    assert!(out.status.success(), "{exe} --quick failed");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let line = stdout.lines().find(|l| l.starts_with("JSON "));
    line.expect("a trailing JSON line").to_string()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The payload after `JSON <label>: ` with every number outside a string
/// replaced by `0`.
fn shape(line: &str) -> String {
    let payload = line.split_once(": ").expect("`JSON <label>: ` prefix").1;
    let mut out = String::new();
    let (mut in_string, mut escaped, mut in_number) = (false, false, false);
    for c in payload.chars() {
        if in_string {
            out.push(c);
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
        } else if c == '-' || c.is_ascii_digit() || (in_number && "+.eE".contains(c)) {
            if !in_number {
                out.push('0');
            }
            in_number = true;
        } else {
            out.push(c);
            in_number = false;
            in_string = c == '"';
        }
    }
    out
}

#[test]
fn computed_rows_print_their_pinned_line() {
    let pins = [
        (env!("CARGO_BIN_EXE_fig1_overhead_surface"), 0x4cd1_ea88_63f4_9428_u64, 5236),
        (env!("CARGO_BIN_EXE_fig2_cg_extra_iters"), 0x5108_52fa_743f_c6f0, 719),
        (env!("CARGO_BIN_EXE_fig3_kkt_gmres"), 0x522b_3129_98d3_0b7f, 365),
        (env!("CARGO_BIN_EXE_fig456_ckpt_recovery_time"), 0x6873_aaab_c814_2e28, 9653),
        (env!("CARGO_BIN_EXE_fig7_expected_overhead"), 0x2ad4_3881_8b90_0e1a, 16098),
        (env!("CARGO_BIN_EXE_fig8_convergence_iters"), 0x8f7b_fb26_eca9_805d, 1588),
        (env!("CARGO_BIN_EXE_fig9_jacobi_residual_trace"), 0x19f0_0337_1c09_0808, 4714),
        (env!("CARGO_BIN_EXE_fig10_ft_overhead"), 0x5bf8_8981_4bd2_c7ed, 2580),
        (env!("CARGO_BIN_EXE_table3_ckpt_sizes"), 0x180f_90c4_2843_44c7, 4136),
        (env!("CARGO_BIN_EXE_theorem1_example"), 0x3a74_e9ab_165f_98cb, 278),
    ];
    let mut moved = Vec::new();
    for (exe, hash, len) in pins {
        let line = json_line(exe);
        if (fnv1a(line.as_bytes()), line.len()) != (hash, len) {
            moved.push(format!("{exe}: {line}"));
        }
    }
    assert!(moved.is_empty(), "JSON lines moved:\n{}", moved.join("\n"));
}

#[test]
fn timed_rows_keep_their_shape() {
    let codec = |name: &str| {
        format!(
            r#"{{"codec":"{name}","ratio":0,"max_abs_error":0,"compress_mb_per_s":0,"decompress_mb_per_s":0}}"#
        )
    };
    assert_eq!(
        shape(&json_line(env!("CARGO_BIN_EXE_ablations"))),
        format!(
            r#"{{"compressors":[{},{},{}],"restarted_cg_extra_iters":0,"nonrestarted_cg_extra_iters":0,"cg_x_only_bytes":0,"cg_x_and_p_bytes":0,"gmres_adaptive_extra_iters":0,"gmres_loose_fixed_extra_iters":0}}"#,
            codec("sz"),
            codec("zfp"),
            codec("fpc+lzss")
        )
    );
}
