//! Regenerate the paper's tables: `tables <table1|table2|table3>|all`.

use ookami_bench::probe;

const CLI: probe::Cli = probe::Cli {
    help: "tables — regenerate the paper's tables\n\
           \n\
           usage: tables [table1|table2|table3|all]   (default all)",
    switches: &[],
    options: &[],
    max_positional: 1,
};

fn main() {
    let args = CLI.from_env();
    let which = args.positional.first().map_or("all", String::as_str);
    print!("{}", ookami_bench::run_tables(which));
}
