#include "replication/messages.h"

namespace lazysi {
namespace replication {

PropCommit::PropCommit(const PropCommit&) = default;
PropCommit::PropCommit(PropCommit&&) noexcept = default;
PropCommit& PropCommit::operator=(const PropCommit&) = default;
PropCommit& PropCommit::operator=(PropCommit&&) noexcept = default;
PropCommit::~PropCommit() = default;

}  // namespace replication
}  // namespace lazysi
