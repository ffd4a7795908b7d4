// hpamg check|diff|trace|perf|top: see reader/tool.hpp.
#include "reader/tool.hpp"

int main(int argc, char** argv) { return hpamg::tool::run(argc, argv); }
