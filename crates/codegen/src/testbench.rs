//! Self-checking testbench generation.
//!
//! Completes the automation loop: alongside the design, emit a Verilog
//! testbench whose stimulus is the real input grid and whose expected
//! responses come from the golden software reference — so the generated
//! RTL can be validated in any Verilog simulator without writing a single
//! line by hand.

use smache::arch::kernel::Kernel;
use smache::config::BufferPlan;
use smache::functional::golden::golden_instance;
use smache::CoreResult;
use smache_mem::Word;

use crate::emit::CodeWriter;

/// A generated testbench: the Verilog source plus its hex stimulus files.
#[derive(Debug, Clone)]
pub struct Testbench {
    /// `smache_tb.v`.
    pub source: String,
    /// `stimulus.hex` — the input words the testbench streams in
    /// (prefetch words first, then the grid in stream order).
    pub stimulus_hex: String,
    /// `expected.hex` — the golden outputs, one per grid element.
    pub expected_hex: String,
}

impl Testbench {
    /// Writes the three files into `dir`.
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("smache_tb.v"), &self.source)?;
        std::fs::write(dir.join("stimulus.hex"), &self.stimulus_hex)?;
        std::fs::write(dir.join("expected.hex"), &self.expected_hex)?;
        Ok(())
    }
}

/// Generates a self-checking testbench for one work-instance of `plan`
/// with the given `input` grid, using `kernel` for the expected outputs.
pub fn generate_testbench(
    plan: &BufferPlan,
    kernel: &dyn Kernel,
    input: &[Word],
) -> CoreResult<Testbench> {
    let expected = golden_instance(&plan.grid, &plan.bounds, &plan.shape, kernel, input)?;

    // Stimulus: the warm-up prefetch words (static buffer regions, in bank
    // order) followed by the streamed grid.
    let mut stimulus: Vec<Word> = Vec::new();
    for b in plan.static_buffers.iter() {
        stimulus.extend_from_slice(&input[b.region_start..b.region_start + b.len]);
    }
    stimulus.extend_from_slice(input);

    let hex = |words: &[Word]| -> String {
        let digits = (plan.word_bits as usize).div_ceil(4);
        words.iter().map(|w| format!("{w:0digits$x}\n")).collect()
    };

    let n = plan.grid.len();
    let width = plan.word_bits;
    let total_stimulus = stimulus.len();
    let mut w = CodeWriter::new();
    w.line("// Self-checking testbench generated by smache-codegen.");
    w.line(&format!(
        "// One work-instance: {} stimulus words in, {} results checked.",
        total_stimulus, n
    ));
    w.line("`timescale 1ns/1ps");
    w.line("module smache_tb;");
    w.indented(|w| {
        w.line("reg clk = 0, rst = 1;");
        w.line(&format!("reg [{}:0] stimulus [0:{}];", width - 1, total_stimulus - 1));
        w.line(&format!("reg [{}:0] expected [0:{}];", width - 1, n - 1));
        w.line("integer in_ptr = 0;");
        w.line("integer out_cnt = 0;");
        w.line("integer errors = 0;");
        w.line(&format!("wire [{}:0] m_tdata;", width - 1));
        w.line("wire m_tvalid;");
        let ib = (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1);
        w.line(&format!("wire [{}:0] m_tindex;", ib - 1));
        w.line("wire s_tready;");
        w.line(&format!("wire [{}:0] s_tdata = stimulus[in_ptr];", width - 1));
        w.line(&format!("wire s_tvalid = (in_ptr < {total_stimulus});"));
        w.blank();
        w.line("always #5 clk = ~clk;");
        w.blank();
        w.line("smache_top dut (");
        w.indented(|w| {
            w.line(".clk(clk), .rst(rst), .stall(1'b0),");
            w.line(".s_axis_tdata(s_tdata), .s_axis_tvalid(s_tvalid), .s_axis_tready(s_tready),");
            w.line(".m_axis_tdata(m_tdata), .m_axis_tvalid(m_tvalid), .m_axis_tindex(m_tindex)");
        });
        w.line(");");
        w.blank();
        w.block("initial begin", "end", |w| {
            w.line("$readmemh(\"stimulus.hex\", stimulus);");
            w.line("$readmemh(\"expected.hex\", expected);");
            w.line("repeat (4) @(posedge clk);");
            w.line("rst = 0;");
        });
        w.blank();
        w.block("always @(posedge clk) if (!rst) begin", "end", |w| {
            w.line("if (s_tvalid && s_tready) in_ptr = in_ptr + 1;");
            w.block("if (m_tvalid) begin", "end", |w| {
                w.block("if (m_tdata !== expected[m_tindex]) begin", "end", |w| {
                    w.line("$display(\"MISMATCH elem %0d: got %0h want %0h\", m_tindex, m_tdata, expected[m_tindex]);");
                    w.line("errors = errors + 1;");
                });
                w.line("out_cnt = out_cnt + 1;");
                w.block(&format!("if (out_cnt == {n}) begin"), "end", |w| {
                    w.line("if (errors == 0) $display(\"PASS: all %0d results match\", out_cnt);");
                    w.line("else $display(\"FAIL: %0d mismatches\", errors);");
                    w.line("$finish;");
                });
            });
        });
        w.blank();
        w.block("initial begin", "end", |w| {
            w.line(&format!("#{};", 40 * (total_stimulus + n) + 4000));
            w.line("$display(\"TIMEOUT: only %0d of %0d results\", out_cnt, 32'd{});");
            w.line("$finish;");
        });
    });
    w.line("endmodule");

    // Patch the timeout display count (written with a placeholder above to
    // keep the writer call simple).
    let source = w.finish().replace("32'd{}", &format!("32'd{n}"));

    Ok(Testbench {
        source,
        stimulus_hex: hex(&stimulus),
        expected_hex: hex(&expected),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_verilog;
    use smache::arch::kernel::AverageKernel;
    use smache::SmacheBuilder;
    use smache_stencil::GridSpec;

    fn paper_tb() -> Testbench {
        let plan = SmacheBuilder::new(GridSpec::d2(11, 11).unwrap())
            .plan()
            .unwrap();
        let input: Vec<Word> = (0..121).collect();
        generate_testbench(&plan, &AverageKernel, &input).unwrap()
    }

    #[test]
    fn testbench_lints_clean() {
        let tb = paper_tb();
        let issues = lint_verilog(&tb.source);
        assert!(issues.is_empty(), "{issues:?}\n{}", tb.source);
    }

    #[test]
    fn stimulus_has_prefetch_then_stream() {
        let tb = paper_tb();
        let lines: Vec<&str> = tb.stimulus_hex.lines().collect();
        // 22 prefetch words + 121 grid words.
        assert_eq!(lines.len(), 143);
        // First prefetch word is grid[110] (buffer B's region start).
        assert_eq!(u64::from_str_radix(lines[0], 16).unwrap(), 110);
        // Grid streaming starts after the prefetch block.
        assert_eq!(u64::from_str_radix(lines[22], 16).unwrap(), 0);
    }

    #[test]
    fn expected_matches_golden() {
        let tb = paper_tb();
        let lines: Vec<&str> = tb.expected_hex.lines().collect();
        assert_eq!(lines.len(), 121);
        // Golden NW corner value from the nine-cases analysis: (110+1+11)/3.
        assert_eq!(u64::from_str_radix(lines[0], 16).unwrap(), 40);
    }

    #[test]
    fn testbench_references_dut_ports() {
        let tb = paper_tb();
        for needle in [
            "smache_top dut",
            "$readmemh",
            "expected[m_tindex]",
            "PASS",
            "TIMEOUT",
        ] {
            assert!(tb.source.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn write_roundtrip() {
        let tb = paper_tb();
        let dir = std::env::temp_dir().join("smache_tb_test");
        tb.write_to_dir(&dir).unwrap();
        assert!(dir.join("smache_tb.v").exists());
        assert!(dir.join("stimulus.hex").exists());
        assert!(dir.join("expected.hex").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
