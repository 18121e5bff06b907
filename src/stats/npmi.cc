#include "stats/npmi.h"

#include <cmath>

namespace ms {

double Pmi(const ColumnInvertedIndex& index, ValueId u, ValueId v) {
  const double n = static_cast<double>(index.num_columns());
  if (n <= 0) return 0.0;
  const double cu = static_cast<double>(index.ColumnFrequency(u));
  const double cv = static_cast<double>(index.ColumnFrequency(v));
  if (cu == 0 || cv == 0) return 0.0;
  const double cuv = static_cast<double>(index.CoOccurrence(u, v));
  if (cuv == 0) return -1e9;
  const double pu = cu / n;
  const double pv = cv / n;
  const double puv = cuv / n;
  return std::log(puv / (pu * pv));
}

double Npmi(const ColumnInvertedIndex& index, ValueId u, ValueId v) {
  return NpmiFromCounts(index.num_columns(), index.ColumnFrequency(u),
                        index.ColumnFrequency(v), index.CoOccurrence(u, v));
}

double NpmiFromCounts(size_t num_columns, size_t c_u, size_t c_v,
                      size_t c_uv) {
  const double n = static_cast<double>(num_columns);
  if (n <= 0) return 0.0;
  const double cu = static_cast<double>(c_u);
  const double cv = static_cast<double>(c_v);
  if (cu == 0 || cv == 0) return 0.0;
  const double cuv = static_cast<double>(c_uv);
  if (cuv == 0) return -1.0;
  const double puv = cuv / n;
  if (puv >= 1.0) return 1.0;  // co-occur in every column
  const double pmi = std::log(puv / ((cu / n) * (cv / n)));
  return pmi / (-std::log(puv));
}

}  // namespace ms
