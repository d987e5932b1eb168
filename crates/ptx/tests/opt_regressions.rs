//! Sweep crash/hang regressions: minimised kernels that once broke an
//! optimizer pass. Each case must terminate and leave the module valid at
//! every optimizer level.

use qdp_ptx::opt::{optimize_module, OptLevel};

/// A self-copy (`mov.f64 %fd0, %fd0`) reads the register it defines (it
/// once sent a copy-propagation pass chasing its own tail). The sweep must
/// terminate, keep the module valid and keep the store that reads it.
#[test]
fn self_mov_does_not_hang() {
    let text = r#"
.version 3.1
.target sm_35
.visible .entry k(
	.param .u64 p
)
{
	.reg .f64 %fd<2>;
	.reg .b64 %rd<1>;
	ld.param.u64 %rd0, [p];
	mov.f64 %fd0, %fd0;
	add.f64 %fd1, %fd0, %fd0;
	st.global.f64 [%rd0+0], %fd1;
	ret;
}
"#;
    let mut module = qdp_ptx::parse::parse_module(text).expect("parses");
    module.validate().expect("validates");
    for level in [OptLevel::None, OptLevel::Default] {
        let mut m = module.clone();
        optimize_module(&mut m, level);
        m.validate().expect("still valid after optimize");
    }
    // and the store feeding off the self-mov must survive DCE
    optimize_module(&mut module, OptLevel::Default);
    let out = qdp_ptx::emit::emit_module(&module);
    assert!(out.contains("st.global.f64"), "store was wrongly eliminated:\n{out}");
}
