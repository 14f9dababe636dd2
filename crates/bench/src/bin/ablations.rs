//! Print the ablation studies (mechanism on/off experiments).

use ookami_bench::probe;

const CLI: probe::Cli = probe::Cli {
    help: "ablations — mechanism on/off studies on the A64FX model\n\
           \n\
           usage: ablations",
    switches: &[],
    options: &[],
    max_positional: 0,
};

fn main() {
    CLI.from_env();
    print!(
        "{}",
        ookami_bench::ablations::render_all(ookami_uarch::machines::a64fx())
    );
}
