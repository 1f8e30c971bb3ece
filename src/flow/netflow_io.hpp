// NetFlow CSV persistence (the intermediate artifact between the Bro stage
// and the graph-mapping stage of the Fig. 1 pipeline).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "flow/netflow.hpp"

namespace csb {

void save_netflow_csv(const std::vector<NetflowRecord>& records,
                      std::ostream& out);
/// Row errors read "<name>:<line>: field '<column>': '<text>' is not …";
/// load_netflow_csv_file passes the file's path as the name.
std::vector<NetflowRecord> load_netflow_csv(
    std::istream& in, const std::string& name = "<stream>");

void save_netflow_csv_file(const std::vector<NetflowRecord>& records,
                           const std::string& path);
std::vector<NetflowRecord> load_netflow_csv_file(const std::string& path);

}  // namespace csb
